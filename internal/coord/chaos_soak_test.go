package coord

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/chaos"
	"setconsensus/internal/service"
)

func mustSpec(t *testing.T, spec string) *chaos.Seeded {
	t.Helper()
	inj, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// soakParams are the shared knobs of the soak runs: short leases so
// stragglers and dropped completions turn over quickly, a generous
// attempt budget (refunded on breaker trips anyway), fast jittered
// backoff, and a breaker tight enough to actually trip under the
// schedule.
func soakParams(rangeSize int) Params {
	p := testParams(rangeSize)
	p.Lease = 60 * time.Millisecond
	p.MaxAttempts = 10
	p.RetryBackoff = time.Millisecond
	p.RetryBackoffCap = 8 * time.Millisecond
	p.BreakerThreshold = 3
	p.BreakerProbation = 10 * time.Millisecond
	return p
}

// TestChaosSoakEngine is the headline acceptance test: a seeded fault
// schedule — worker crashes, stragglers past the lease, dropped and
// duplicated completions, and one torn checkpoint append — over
// in-process engine workers must still complete and merge to the
// byte-identical monolithic Summary. The test then resumes from the
// journal the chaotic run left — its torn append repaired — which must
// load whole as the finished sweep and merge again with zero ranges
// re-swept.
func TestChaosSoakEngine(t *testing.T) {
	inj := mustSpec(t, "seed=1337,crash=0.12,straggler=0.2,delay=90ms,drop=0.1,dup=0.15,torn#1")
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	src := testSource(t)
	p := soakParams(7)
	p.CheckpointPath = cp
	p.Chaos = inj

	c, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Worker, 3)
	for i := range ws {
		ws[i] = NewEngineWorker(fmt.Sprintf("engine-%d", i), testEngine(t), testRefs, src, time.Millisecond).WithChaos(inj)
	}
	sum, err := c.Run(context.Background(), ws, nil)
	if err != nil {
		t.Fatalf("chaotic sweep failed: %v (faults: %s)", err, inj)
	}
	if got, want := summaryJSON(t, sum), summaryJSON(t, monolithic(t)); got != want {
		t.Errorf("chaotic merged summary differs from monolithic:\n got %s\nwant %s", got, want)
	}
	if inj.Total() == 0 {
		t.Fatal("fault schedule fired nothing — the soak proved nothing")
	}
	if got := inj.Counts()[chaos.PointTornCheckpoint]; got != 1 {
		t.Fatalf("torn appends fired %d times, want 1", got)
	}
	t.Logf("faults injected: %s; coordinator stats: %+v", inj, c.Stats())

	p.Chaos = nil
	c2, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatalf("checkpoint unusable after chaotic run: %v", err)
	}
	if got := c2.Stats().CheckpointTailsDropped; got != 0 {
		t.Errorf("chaotic run's journal dropped %d tails on load, want 0", got)
	}
	var swept atomic.Int32
	sum2, err := c2.Run(context.Background(), countSweeps(engineWorkers(t, 2), &swept), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryJSON(t, sum2), summaryJSON(t, monolithic(t)); got != want {
		t.Errorf("post-chaos resume differs from monolithic:\n got %s\nwant %s", got, want)
	}
	if n := swept.Load(); n != 0 {
		t.Errorf("resume of the finished sweep re-swept %d ranges, want 0", n)
	}
}

// TestChaosSoakRemote runs the schedule over the HTTP transport: client
// requests fail transiently, SSE streams sever mid-job, workers crash
// and straggle — the client's retry/reconnect plus the coordinator's
// retry/breaker must still converge on the monolithic bytes.
func TestChaosSoakRemote(t *testing.T) {
	inj := mustSpec(t, "seed=4242,crash=0.1,straggler=0.15,delay=90ms,http=0.15,sse=0.25")
	base := remoteHarness(t)
	src := testSource(t)
	p := soakParams(7)

	c, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Worker, 2)
	for i := range ws {
		w := NewRemoteWorker(fmt.Sprintf("remote-%d", i), base,
			service.JobRequest{Refs: testRefs, Workload: testWorkload}).WithChaos(inj)
		w.Client().RetryBase = time.Millisecond
		w.Client().RetryCap = 10 * time.Millisecond
		w.Client().Retries = 5
		ws[i] = w
	}
	sum, err := c.Run(context.Background(), ws, nil)
	if err != nil {
		t.Fatalf("chaotic remote sweep failed: %v (faults: %s)", err, inj)
	}
	if got, want := summaryJSON(t, sum), summaryJSON(t, monolithic(t)); got != want {
		t.Errorf("chaotic remote summary differs from monolithic:\n got %s\nwant %s", got, want)
	}
	if inj.Total() == 0 {
		t.Fatal("fault schedule fired nothing")
	}
	var retries, reconnects int64
	for _, w := range ws {
		st := w.(*RemoteWorker).Client().Stats()
		retries += st.HTTPRetries
		reconnects += st.SSEReconnects
	}
	t.Logf("faults: %s; client retries=%d reconnects=%d; coordinator: %+v", inj, retries, reconnects, c.Stats())
}

// TestQuarantineAllButOne is the degradation acceptance criterion: with
// every worker but one persistently failing, the breaker must
// quarantine the bad fleet (refunding their range attempts) and the
// lone healthy worker must still finish the exact sweep.
func TestQuarantineAllButOne(t *testing.T) {
	p := testParams(5)
	p.MaxAttempts = 4
	p.RetryBackoff = time.Millisecond
	p.RetryBackoffCap = 4 * time.Millisecond
	p.BreakerThreshold = 2
	p.BreakerProbation = time.Minute // longer than the test: no re-admission
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := func(name string) *fakeWorker {
		return &fakeWorker{name: name, sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
			return nil, fmt.Errorf("%s is broken", name)
		}}
	}
	// The good worker stalls its first range until both bad workers have
	// tripped their breakers, so the sweep provably ran against a fully
	// quarantined fleet rather than simply outracing it.
	var gated atomic.Bool
	good := &fakeWorker{name: "good", sweep: func(ctx context.Context, r Range) (*setconsensus.Summary, error) {
		if gated.CompareAndSwap(false, true) {
			deadline := time.Now().Add(5 * time.Second)
			for c.Stats().BreakerTrips < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	sum, err := c.Run(context.Background(), []Worker{bad("bad-1"), bad("bad-2"), good}, nil)
	if err != nil {
		t.Fatalf("sweep with quarantined fleet failed: %v (stats %+v)", err, c.Stats())
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("degraded sweep summary wrong:\n got %s\nwant %s", got, goldenFake(t))
	}
	st := c.Stats()
	if st.BreakerTrips < 2 {
		t.Errorf("BreakerTrips = %d, want ≥ 2 (both bad workers)", st.BreakerTrips)
	}
	if st.QuarantinedWorkers != 2 {
		t.Errorf("QuarantinedWorkers = %d, want 2", st.QuarantinedWorkers)
	}
	if st.AttemptsRefunded == 0 {
		t.Error("no attempts refunded despite breaker trips")
	}
}

// TestProbationReadmission: a worker that fails long enough to trip the
// breaker but then recovers must be re-admitted after probation via a
// half-open trial, close its breaker on success, and participate again.
func TestProbationReadmission(t *testing.T) {
	p := testParams(5)
	p.MaxAttempts = 6
	p.RetryBackoff = time.Millisecond
	p.RetryBackoffCap = 4 * time.Millisecond
	p.BreakerThreshold = 2
	p.BreakerProbation = 15 * time.Millisecond
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var fails atomic.Int32
	flaky := &fakeWorker{name: "flaky", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		if fails.Add(1) <= 2 {
			return nil, fmt.Errorf("warming up")
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	sum, err := c.Run(context.Background(), []Worker{flaky}, nil)
	if err != nil {
		t.Fatalf("run: %v (stats %+v)", err, c.Stats())
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("summary wrong after probation round-trip:\n got %s\nwant %s", got, goldenFake(t))
	}
	st := c.Stats()
	if st.BreakerTrips == 0 {
		t.Error("breaker never tripped")
	}
	if st.ProbationGrants == 0 {
		t.Error("no probation trial granted")
	}
	if st.QuarantinedWorkers != 0 {
		t.Errorf("QuarantinedWorkers = %d after recovery, want 0", st.QuarantinedWorkers)
	}
}

// TestDropAndDupInjection: dropped completions come back via lease
// expiry, duplicated ones merge idempotently — adversary counts stay
// exact either way.
func TestDropAndDupInjection(t *testing.T) {
	inj := mustSpec(t, "drop#1,dup#1")
	p := testParams(5)
	p.Lease = 30 * time.Millisecond
	p.MaxAttempts = 6
	p.RetryBackoff = time.Millisecond
	p.Chaos = inj
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background(), []Worker{plainFake("a"), plainFake("b")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("summary wrong under drop/dup injection:\n got %s\nwant %s", got, goldenFake(t))
	}
	counts := inj.Counts()
	if counts[chaos.PointDropCompletion] != 1 || counts[chaos.PointDupCompletion] != 1 {
		t.Errorf("injection counts = %v, want one drop and one dup", counts)
	}
}

// TestBackoffBounds pins the jittered exponential schedule: every delay
// stays within [0, cap], and the first attempt within [0, base].
func TestBackoffBounds(t *testing.T) {
	p := testParams(5)
	p.RetryBackoff = 8 * time.Millisecond
	p.RetryBackoffCap = 20 * time.Millisecond
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if d := c.backoffFor(1); d < 0 || d > 8*time.Millisecond {
			t.Fatalf("backoffFor(1) = %v outside [0, base]", d)
		}
		if d := c.backoffFor(10); d < 0 || d > 20*time.Millisecond {
			t.Fatalf("backoffFor(10) = %v outside [0, cap]", d)
		}
	}
}

// TestParamsValidateTyped pins the typed validation errors.
func TestParamsValidateTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"cap below base", func(p *Params) { p.RetryBackoff = time.Second; p.RetryBackoffCap = time.Millisecond }, ErrBackoffCap},
		{"negative cap", func(p *Params) { p.RetryBackoffCap = -time.Second }, ErrBackoffCap},
		{"negative threshold", func(p *Params) { p.BreakerThreshold = -1 }, ErrBreaker},
		{"negative probation", func(p *Params) { p.BreakerProbation = -time.Second }, ErrBreaker},
		{"zero range size", func(p *Params) { p.RangeSize = 0 }, ErrRangeSize},
		{"zero lease", func(p *Params) { p.Lease = 0 }, ErrLease},
		{"zero attempts", func(p *Params) { p.MaxAttempts = 0 }, ErrMaxAttempts},
		{"negative backoff", func(p *Params) { p.RetryBackoff = -time.Second }, ErrRetryBackoff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mut(&p)
			if err := p.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}
