package service

import (
	"context"
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	setconsensus "setconsensus"
)

// newTestServer builds a started server with test-sized budgets mounted
// on httptest, plus a client pointed at it. Cleanup drains the server
// and fails the test if the drain grace expires — a worker slot still
// held at teardown is a bug, not a shrug.
func newTestServer(t *testing.T, mutate func(*Params)) (*Server, *Client) {
	t.Helper()
	p := Default()
	p.Workers = 2
	p.QueueDepth = 8
	p.MaxSpaceSize = 1_000_000
	p.JobDeadline = 30 * time.Second
	p.ResultBound = 16
	p.EngineParallelism = 2
	p.ProgressInterval = 2 * time.Millisecond
	if mutate != nil {
		mutate(&p)
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown did not drain cleanly: %v", err)
		}
		ts.Close()
	})
	return s, c
}

// The slow test workload: an unknown-count source that yields one
// failure-free 3-process adversary per step with a per-step delay, so
// tests can hold a worker slot deterministically and exercise the
// runtime space budget (unknown count bypasses admission sizing).
// Parameters: steps=<n> delayus=<µs>.
const slowWorkload = "svc-test-slow"

var registerSlowOnce sync.Once

func registerSlowWorkload(t *testing.T) {
	t.Helper()
	registerSlowOnce.Do(func() {
		setconsensus.DefaultWorkloads().MustRegister(setconsensus.WorkloadSpec{
			Name:    slowWorkload,
			Summary: "test-only slow unknown-count source",
			Params:  "steps=1000 delayus=1000",
			New: func(args setconsensus.WorkloadArgs) (setconsensus.Source, error) {
				steps, err := args.Int("steps", 1000)
				if err != nil {
					return nil, err
				}
				delayus, err := args.Int("delayus", 1000)
				if err != nil {
					return nil, err
				}
				if err := args.Finish(); err != nil {
					return nil, err
				}
				delay := time.Duration(delayus) * time.Microsecond
				seq := iter.Seq[*setconsensus.Adversary](func(yield func(*setconsensus.Adversary) bool) {
					adv, err := setconsensus.NewBuilder(3, 0).Inputs(0, 1, 2).Build()
					if err != nil {
						panic(err)
					}
					for i := 0; i < steps; i++ {
						time.Sleep(delay)
						if !yield(adv) {
							return
						}
					}
				})
				return setconsensus.FuncSource(slowWorkload, -1, seq), nil
			},
		})
	})
}

// TestSweepJobMatchesLocalEngine pins the service's core contract: a
// sweep submitted as a job returns the same Summary — rendered through
// the same table — as the same references swept on a local Engine.
func TestSweepJobMatchesLocalEngine(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	const workload = "space:n=3,t=1,r=2,v=0..1"

	st, err := c.SubmitAndWait(ctx, JobRequest{
		Kind: KindSweep, Refs: refs, Workload: workload,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Summary == nil {
		t.Fatal("done sweep job carries no summary")
	}

	eng := setconsensus.New(
		setconsensus.WithCrashBound(setconsensus.PatternCrashBound),
	)
	src, err := setconsensus.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SweepSource(ctx, refs, src)
	if err != nil {
		t.Fatal(err)
	}
	got := setconsensus.SummaryTable(st.Summary).Render()
	if local := setconsensus.SummaryTable(want).Render(); got != local {
		t.Fatalf("remote summary differs from local:\nremote:\n%s\nlocal:\n%s", got, local)
	}
	// The last progress snapshot reads as the whole of a known total.
	if n, _ := src.Count(); st.Progress == nil || st.Progress.Adversaries != n || st.Progress.Total != n {
		t.Errorf("terminal progress %+v, want %d of %d adversaries", st.Progress, n, n)
	}

	// The finished result is also served from the store.
	st2, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || setconsensus.SummaryTable(st2.Summary).Render() != got {
		t.Fatalf("stored status diverged from terminal event")
	}
}

// TestAnalysisJobMatchesLocalEngine runs a bounded deviation search as a
// job and checks the report against a local AnalyzeStream of the same
// reference, plus that stage progress actually streamed.
func TestAnalysisJobMatchesLocalEngine(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	const ref = "search:optmin:n=3,t=2,r=2,width=2"

	var stages []string
	st, err := c.SubmitAndWait(ctx, JobRequest{Kind: KindAnalysis, Analysis: ref},
		func(p JobProgress) {
			if len(stages) == 0 || stages[len(stages)-1] != p.Stage {
				stages = append(stages, p.Stage)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("analysis job finished %s (%s)", st.State, st.Error)
	}
	if st.Analysis == nil || !st.Analysis.OK() {
		t.Fatalf("analysis job report not OK: %+v", st.Analysis)
	}

	eng := setconsensus.New()
	want, err := eng.Analyze(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	got := setconsensus.AnalysisTable(st.Analysis).Render()
	if local := setconsensus.AnalysisTable(want).Render(); got != local {
		t.Fatalf("remote analysis differs from local:\nremote:\n%s\nlocal:\n%s", got, local)
	}
	// A fast job may finish before the SSE subscription lands, so live
	// progress events are best-effort; the terminal status always
	// retains the last stage snapshot.
	if st.Progress == nil || st.Progress.Stage == "" {
		t.Errorf("terminal status carries no stage progress: %+v", st.Progress)
	}
	if len(stages) > 0 && stages[0] == "" {
		t.Errorf("streamed empty stage name: %v", stages)
	}
}

// TestSubmissionErrors pins the HTTP error contract of POST /v1/jobs:
// malformed payloads and unknown references are 400, out-of-budget
// spaces are 422 with the typed error's message.
func TestSubmissionErrors(t *testing.T) {
	_, c := newTestServer(t, func(p *Params) { p.MaxSpaceSize = 10 })
	ctx := context.Background()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := c.http().Post(c.url("/v1/jobs"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	cases := []struct {
		name     string
		body     string
		wantCode int
		wantMsg  string
	}{
		{"malformed json", `{"kind":`, http.StatusBadRequest, "bad job payload"},
		{"unknown kind", `{"kind":"bogus"}`, http.StatusBadRequest, "unknown job kind"},
		{"sweep without workload", `{"kind":"sweep","refs":["optmin"]}`, http.StatusBadRequest, "needs a workload"},
		{"sweep without refs", `{"kind":"sweep","workload":"collapse:k=1,r=2"}`, http.StatusBadRequest, "protocol ref"},
		{"unknown workload", `{"kind":"sweep","refs":["optmin"],"workload":"nonsense"}`, http.StatusBadRequest, "unknown name"},
		{"unknown analysis", `{"kind":"analysis","analysis":"nonsense"}`, http.StatusBadRequest, "unknown name"},
		{"unknown backend", `{"kind":"analysis","analysis":"search:optmin","params":{"backend":"quantum"}}`, http.StatusBadRequest, "backend"},
		{"space over budget", `{"kind":"sweep","refs":["optmin"],"workload":"space:n=3,t=1,r=2,v=0..1"}`,
			http.StatusUnprocessableEntity, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.body)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", code, tc.wantCode, body)
			}
			if !strings.Contains(body, tc.wantMsg) {
				t.Fatalf("body %q does not mention %q", body, tc.wantMsg)
			}
		})
	}

	if _, err := c.Get(ctx, "zzz"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("GET unknown job = %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "zzz"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("DELETE unknown job = %v, want 404", err)
	}
}

// TestSubmitRefusesUnboundedRandomInputs pins that admission reads the
// workloads' input bound: a one-adversary job whose inputs range over
// 0..10^9 — a graph of about 1.5 GB — or whose one space value is 10^9
// — 503 MB — is refused at Submit, with the bound named, and nothing is
// queued.
func TestSubmitRefusesUnboundedRandomInputs(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, c := range []struct{ workload, bound string }{
		{"random:n=3,t=0,maxv=1000000000,count=1", "1048576"},
		{"space:n=2,t=0,r=1,v=1000000000..1000000000", "1048575"},
	} {
		_, err := s.Submit(JobRequest{Kind: KindSweep, Refs: []string{"optmin"}, Workload: c.workload})
		if err == nil || !strings.Contains(err.Error(), c.bound) {
			t.Fatalf("Submit(%q) = %v, want a refusal naming the bound %s", c.workload, err, c.bound)
		}
	}
	if q := s.metrics.queued.Load(); q != 0 {
		t.Fatalf("%d jobs queued, want none", q)
	}
}

// TestAnalysisSpaceBudget pins admission of analysis jobs on a default
// budget: a search is sized by the exact count of the space it compiles
// and rejected over budget with 422, as sweep jobs are, while searches
// within budget and the certificate families, which enumerate no space,
// are admitted.
func TestAnalysisSpaceBudget(t *testing.T) {
	s, c := newTestServer(t, func(p *Params) { p.MaxSpaceSize = Default().MaxSpaceSize })
	ctx := context.Background()

	// 211,165,785 adversaries, against 10,000,000.
	over := `{"kind":"analysis","analysis":"search:upmin:n=6,t=3,r=2,k=2,width=1"}`
	resp, err := c.http().Post(c.url("/v1/jobs"), "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "budget") {
		t.Fatalf("over-budget search = %d %s, want 422 naming the budget", resp.StatusCode, body)
	}

	// Within budget. Admission alone is checked: the n=5 searches compile
	// 5,015,763 and 2,391,363 runs, seconds and gigabytes of work.
	for _, ref := range []string{"search:upmin:n=5,t=3,r=2,k=2,width=1", "search:optmin:n=5,t=2,k=2,width=1", "forced:k=2", "lemma2"} {
		if _, err := s.admit(&JobRequest{Kind: KindAnalysis, Analysis: ref}); err != nil {
			t.Errorf("%s not admitted: %v", ref, err)
		}
	}
	// The benchmark daemon's analysis job is admitted and runs.
	st, err := c.SubmitAndWait(ctx, JobRequest{Kind: KindAnalysis, Analysis: "search:optmin:n=3,t=2,r=2,width=2",
		Params: JobParams{K: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Analysis == nil || st.Analysis.Search == nil {
		t.Fatalf("analysis job finished %s (%q)", st.State, st.Error)
	}
}

// TestBadProtocolRefFailsJob pins that references admission cannot
// resolve synchronously (protocol refs bind at sweep time) surface as a
// failed job, not a hung one.
func TestBadProtocolRefFailsJob(t *testing.T) {
	_, c := newTestServer(t, nil)
	st, err := c.SubmitAndWait(context.Background(), JobRequest{
		Kind: KindSweep, Refs: []string{"no-such-protocol"}, Workload: "collapse:k=1,r=2",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job with bad protocol ref finished %s (%q)", st.State, st.Error)
	}
}

// TestQueueFullRejects pins the bounded queue: with one worker held and
// the one-deep queue occupied, the next submission is rejected with 429
// + Retry-After instead of buffering without bound.
func TestQueueFullRejects(t *testing.T) {
	registerSlowWorkload(t)
	_, c := newTestServer(t, func(p *Params) {
		p.Workers = 1
		p.QueueDepth = 1
	})
	ctx := context.Background()
	slow := JobRequest{Kind: KindSweep, Refs: []string{"optmin"},
		Workload: slowWorkload + ":steps=100000,delayus=1000"}

	running, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to claim it so the queue slot is free again.
	waitState(t, c, running.ID, StateRunning)

	queued, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	// 429 is transient (the client would retry with Retry-After
	// backoff), so probe with a no-retry copy to see the rejection.
	direct := &Client{Base: c.Base, HTTP: c.HTTP, Retries: -1}
	if _, err := direct.Submit(ctx, slow); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third submission = %v, want 429 queue full", err)
	} else if !IsOverload(err) {
		t.Fatalf("third submission error %v not classified as overload", err)
	}

	// Cancelling the queued job frees it without a worker ever claiming
	// it; cancelling the running one releases the worker slot (cleanup's
	// clean drain is the proof).
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, c, id)
		if st.State != StateCancelled {
			t.Fatalf("job %s finished %s, want cancelled", id, st.State)
		}
	}
}

// TestResultStoreEviction pins the bounded result store: with a bound of
// two, the third finished job evicts the first, FIFO.
func TestResultStoreEviction(t *testing.T) {
	_, c := newTestServer(t, func(p *Params) { p.ResultBound = 2 })
	ctx := context.Background()
	quick := JobRequest{Kind: KindSweep, Refs: []string{"optmin"}, Workload: "collapse:k=1,r=2"}

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.SubmitAndWait(ctx, quick, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("quick job finished %s (%s)", st.State, st.Error)
		}
		ids = append(ids, st.ID)
	}
	if _, err := c.Get(ctx, ids[0]); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("evicted job Get = %v, want 404", err)
	}
	for _, id := range ids[1:] {
		if _, err := c.Get(ctx, id); err != nil {
			t.Fatalf("retained job %s: %v", id, err)
		}
	}
}

// TestObservability pins the monitoring surface: /healthz, /v1/stats
// counters moving with work, and expvar exposing the service map.
func TestObservability(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()

	if _, err := c.SubmitAndWait(ctx, JobRequest{
		Kind: KindSweep, Refs: []string{"optmin"}, Workload: "collapse:k=1,r=2",
	}, nil); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := c.http().Get(c.url(path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %q", body)
	}
	var stats map[string]int64
	if err := json.Unmarshal([]byte(get("/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_queued", "jobs_running", "jobs_done", "jobs_failed",
		"jobs_cancelled", "queue_depth", "runs_total", "runs_per_sec",
		"graphs_rebuilt", "graphs_revived", "graphs_patched"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
	if stats["jobs_done"] < 1 {
		t.Errorf("jobs_done = %d after a finished job", stats["jobs_done"])
	}
	if stats["runs_total"] < 1 {
		t.Errorf("runs_total = %d after a finished sweep", stats["runs_total"])
	}
	if body := get("/debug/vars"); !strings.Contains(body, "setconsensusd") {
		t.Error("expvar does not expose the setconsensusd map")
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
}

// TestSSEWireFormat pins the raw stream shape a non-Go consumer sees:
// text/event-stream, an immediate state frame, and a terminal frame
// that closes the stream even for a job that finished long ago.
func TestSSEWireFormat(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	st, err := c.SubmitAndWait(ctx, JobRequest{
		Kind: KindSweep, Refs: []string{"optmin"}, Workload: "collapse:k=1,r=2",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.http().Get(c.url("/v1/jobs/" + st.ID + "/events"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	stateAt := strings.Index(text, "event: state\n")
	doneAt := strings.Index(text, "event: done\n")
	if stateAt < 0 || doneAt < 0 || doneAt < stateAt {
		t.Fatalf("stream missing ordered state/done frames:\n%s", text)
	}
	if !strings.Contains(text, `"summary"`) {
		t.Fatalf("terminal frame carries no summary:\n%s", text)
	}
}

// waitState polls until the job reports the wanted state.
func waitState(t *testing.T, c *Client, id string, want JobState) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, c *Client, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRangeScopedSweepJob pins the Offset/Limit window contract behind
// coordinated sweeps: a range job sweeps exactly its window, two
// complementary windows merge to the whole-workload summary, and a
// range job over a space beyond the budget is admitted on its window.
func TestRangeScopedSweepJob(t *testing.T) {
	// Budget far below the space's enumeration bound: whole-workload
	// submissions must bounce while range jobs pass on their windows.
	_, c := newTestServer(t, func(p *Params) { p.MaxSpaceSize = 10 })
	ctx := context.Background()
	refs := []string{"optmin"}
	const workload = "space:n=3,t=1,r=2,v=0..1"

	if _, err := c.Submit(ctx, JobRequest{Kind: KindSweep, Refs: refs, Workload: workload}); err == nil {
		t.Fatal("whole-space job passed a 10-adversary budget")
	}

	src, err := setconsensus.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(setconsensus.PatternCrashBound))
	whole, err := eng.SweepSource(ctx, refs, src)
	if err != nil {
		t.Fatal(err)
	}
	total := whole.Adversaries()

	merged, err := eng.NewAggregator(src.Label(), refs)
	if err != nil {
		t.Fatal(err)
	}
	sum := merged.Summary()
	for off := 0; off <= total; off += 10 { // last window runs short / empty
		st, err := c.SubmitAndWait(ctx, JobRequest{
			Kind: KindSweep, Refs: refs, Workload: workload, Offset: off, Limit: 10,
		}, nil)
		if err != nil {
			t.Fatalf("range job at offset %d: %v", off, err)
		}
		if st.State != StateDone || st.Summary == nil {
			t.Fatalf("range job at offset %d finished %s (%s)", off, st.State, st.Error)
		}
		if err := sum.Merge(st.Summary); err != nil {
			t.Fatalf("merging window at %d: %v", off, err)
		}
	}
	if got, want := setconsensus.SummaryTable(sum).Render(), setconsensus.SummaryTable(whole).Render(); got != want {
		t.Fatalf("merged range jobs differ from whole sweep:\nmerged:\n%s\nwhole:\n%s", got, want)
	}

	// Shape validation: analysis jobs cannot carry windows, negatives die.
	for _, bad := range []JobRequest{
		{Kind: KindAnalysis, Analysis: "forced", Offset: 1},
		{Kind: KindSweep, Refs: refs, Workload: workload, Offset: -1},
		{Kind: KindSweep, Refs: refs, Workload: workload, Limit: -2},
	} {
		if _, err := c.Submit(ctx, bad); err == nil {
			t.Errorf("invalid range request accepted: %+v", bad)
		}
	}
}

// hangUpRecorder is a recorded event stream whose client hangs up as
// soon as a flush has carried it the terminal "done" event.
type hangUpRecorder struct {
	*httptest.ResponseRecorder
	hangUp context.CancelFunc
}

func (w hangUpRecorder) Flush() {
	w.ResponseRecorder.Flush()
	if strings.Contains(w.Body.String(), "event: done\n") {
		w.hangUp()
	}
}

// TestSSEStreamCompletesAtTerminalEvent pins what counts as a broken
// stream: one that ends before its terminal event. A client that hangs
// up once it has read the terminal event, before the channel's close
// reaches the server, completed its stream, so serveSSE reports it
// completed and sse_broken does not move.
func TestSSEStreamCompletesAtTerminalEvent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := hangUpRecorder{httptest.NewRecorder(), cancel}
	r := httptest.NewRequest("GET", "/v1/jobs/j/events", nil).WithContext(ctx)
	ch := make(chan Event, 2) // left open: the close has not arrived
	ch <- Event{Name: "state", Status: &JobStatus{State: StateRunning}}
	ch <- Event{Name: string(StateDone), Status: &JobStatus{State: StateDone}}
	if !serveSSE(w, r, ch) {
		t.Fatalf("a stream that delivered its terminal event counted as broken:\n%s", w.Body)
	}
}
