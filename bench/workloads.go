package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/cli"
	"setconsensus/internal/service"
)

// kind is the user path a workload drives.
type kind int

const (
	kindSweep   kind = iota // cli.SweepWorkload: the setconsensus -workload path
	kindDaemon              // setconsensusd jobs submitted and awaited over HTTP
	kindCoord               // cli.CoordinateWorkload with in-process workers and a checkpoint
	kindAnalyze             // cli.RunAnalysis: the setconsensus -analyze path
)

// spec is one benchmark workload: the user path and the inputs it runs.
// BENCHMARK.json and README.md record why each workload is in the suite.
type spec struct {
	name string
	kind kind
	// ref is the workload reference of sweeps and the sweep job of
	// daemon-jobs, or the analysis reference of analyze-search. "{seed}"
	// expands to the run's seed.
	ref string
	// refs are the protocols swept; k the degree (0 keeps the engine's).
	refs []string
	k    int
	// analysis is the analysis job daemon-jobs mixes with its sweep jobs.
	analysis string
	// space is the adversary stream an analysis compiles, as a workload
	// reference, and t the crash bound of its runs, for the traced replay;
	// sweeps replay ref with each adversary's own failure count.
	space string
	t     int
}

// stream is the workload reference of the adversaries one op sweeps and
// the crash bound of their runs.
func (w *spec) stream(seed int64) (string, int) {
	if w.space != "" {
		return w.space, w.t
	}
	return seeded(w.ref, seed), setconsensus.PatternCrashBound
}

var bothUnbeatable = []string{"optmin", "upmin"}

// defaultSuite is the benchmark's workload list, in the order an
// all-workload run executes it. Each op is small enough that one window
// holds over a hundred of them, so the reported medians and 90th
// percentiles rest on many samples.
func defaultSuite() []*spec {
	return []*spec{
		{name: "sweep-space", kind: kindSweep, ref: "space:n=5,t=1,r=2,v=0..2", refs: bothUnbeatable, k: 2},
		{name: "sweep-random", kind: kindSweep, ref: "random:n=6,t=3,maxv=2,maxr=3,count=20000,seed={seed}",
			refs: bothUnbeatable, k: 2},
		{name: "daemon-jobs", kind: kindDaemon, ref: "space:n=4,t=2,r=2,v=0..1",
			analysis: "search:optmin:n=3,t=2,r=2,width=2", refs: bothUnbeatable, k: 1},
		{name: "coord-ckpt", kind: kindCoord, ref: "space:n=4,t=2,r=2,v=0..1", refs: bothUnbeatable, k: 1},
		{name: "analyze-search", kind: kindAnalyze, ref: "search:upmin:n=4,t=2,r=2,width=2",
			space: "space:n=4,t=2,r=2,v=0..1", t: 2, refs: []string{"upmin"}, k: 1},
	}
}

func find(suite []*spec, name string) *spec {
	for _, w := range suite {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ofKind returns the suite's workload of kind k: the mechanism inputs a
// traced run measures the service, coord and unbeat layers on.
func ofKind(suite []*spec, k kind) *spec {
	for _, w := range suite {
		if w.kind == k {
			return w
		}
	}
	return nil
}

func seeded(ref string, seed int64) string {
	return strings.ReplaceAll(ref, "{seed}", strconv.FormatInt(seed, 10))
}

// sweepKey and analysisKey name an input in golden.json. A daemon sweep
// job and a local sweep of the same reference share a key: remote output
// is byte-identical to local output.
func sweepKey(ref string, refs []string, k int) string {
	return fmt.Sprintf("sweep %s %s k=%d", ref, strings.Join(refs, ","), k)
}

func analysisKey(ref string) string { return "analysis " + ref }

//go:embed golden.json
var goldenJSON []byte

// golden maps input keys to the sha256 of the rendered SummaryTable or
// AnalysisTable, plus a trailing newline — exactly what the CLIs print.
func golden() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		return nil, fmt.Errorf("bench: golden.json: %w", err)
	}
	return m, nil
}

func digest(t *setconsensus.ExperimentTable) string {
	sum := sha256.Sum256([]byte(t.Render() + "\n"))
	return hex.EncodeToString(sum[:])
}

// runEnv is what one benchmark process shares across its workload.
type runEnv struct {
	seed   int64
	procs  int    // P: GOMAXPROCS and coordinator workers
	tmp    string // scratch directory inside the checkout
	golden map[string]string
	suite  []*spec
}

// opResult is the outcome of one op: the adversaries it processed (for
// an analysis, the adversaries its compile stage enumerated) and why it
// failed, if it did.
type opResult struct {
	adv int
	err error
}

// session is an opened workload: set-up done, ready to run ops.
type session interface {
	// op runs one operation.
	op(ctx context.Context) opResult
	// inputs records each reference the session runs, for the result's
	// environment record.
	inputs() []string
	close()
}

// expected holds the digest each input key must produce. Keys absent from
// golden.json — the random workload on a seed with no stored digest, the
// test-only inputs — get a reference digest from the single-goroutine
// replay (sweeps) or are pinned by their first op (analyses, whose verdict
// is checked separately), so every later op is still checked.
type expected struct {
	mu   sync.Mutex
	want map[string]string
}

func (e *expected) check(key string, t *setconsensus.ExperimentTable) error {
	got := digest(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	want, ok := e.want[key]
	if !ok {
		e.want[key] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("bench: %s: output digest %s, want %s", key, got[:12], want[:12])
	}
	return nil
}

// resolve pins the expected digest of a sweep input that has no golden
// digest to the single-goroutine replay's output, before any timed op.
func (e *expected) resolve(ctx context.Context, env *runEnv, key, ref string, refs []string, k int) error {
	if _, ok := env.golden[key]; ok {
		return nil
	}
	fmt.Fprintf(os.Stderr, "bench: no golden digest for %q; checking against the single-goroutine replay\n", key)
	src, err := setconsensus.ParseWorkload(ref)
	if err != nil {
		return err
	}
	sum, _, err := replay(ctx, src, refs, k, setconsensus.PatternCrashBound, false, false, nil)
	if err != nil {
		return err
	}
	return e.check(key, setconsensus.SummaryTable(sum))
}

// newExpected pins the golden digests of the given keys.
func newExpected(env *runEnv, keys ...string) *expected {
	e := &expected{want: make(map[string]string)}
	for _, k := range keys {
		if d, ok := env.golden[k]; ok {
			e.want[k] = d
		}
	}
	return e
}

func checkSummary(sum *setconsensus.Summary) error {
	if v := sum.Violations(); v > 0 {
		return fmt.Errorf("bench: %s: %d task violations", sum.Workload, v)
	}
	return nil
}

func checkReport(rep *setconsensus.AnalysisReport) error {
	if rep.Search == nil {
		return fmt.Errorf("bench: analysis %s returned no search report", rep.Family)
	}
	if rep.Search.Beaten {
		return fmt.Errorf("bench: analysis %s: the base protocol was beaten", rep.Family)
	}
	return nil
}

// open sets the workload up and runs one warm-up op at full size; the
// session is ready when it returns.
func (w *spec) open(ctx context.Context, env *runEnv) (session, error) {
	switch w.kind {
	case kindSweep, kindCoord:
		ref := seeded(w.ref, env.seed)
		s := &sweepSession{w: w, ref: ref, key: sweepKey(ref, w.refs, w.k)}
		s.exp = newExpected(env, s.key)
		if w.kind == kindCoord {
			if err := os.MkdirAll(env.tmp, 0o755); err != nil {
				return nil, err
			}
			s.workers, s.ckpt = env.procs, filepath.Join(env.tmp, w.name+".ckpt")
		}
		_, err := s.sweep(ctx, ref)
		return s, err
	case kindAnalyze:
		ref := seeded(w.ref, env.seed)
		s := &analyzeSession{w: w, ref: ref, exp: newExpected(env, analysisKey(ref))}
		r := s.op(ctx)
		return s, r.err
	case kindDaemon:
		s, err := openDaemon(w, env)
		if err != nil {
			return nil, err
		}
		for _, analysis := range []bool{false, true} {
			if _, err := s.job(ctx, analysis); err != nil {
				s.close()
				return nil, err
			}
		}
		return s, nil
	}
	return nil, fmt.Errorf("bench: %s: unknown kind %d", w.name, w.kind)
}

// prepare pins the expected digest of every sweep input without a golden
// digest, outside the set-up and measurement windows.
func prepare(ctx context.Context, s session, env *runEnv) error {
	switch s := s.(type) {
	case *sweepSession:
		return s.exp.resolve(ctx, env, s.key, s.ref, s.w.refs, s.w.k)
	case *daemonSession:
		return s.exp.resolve(ctx, env, s.sweepKey, s.sweepReq.Workload, s.sweepReq.Refs, s.w.k)
	}
	return nil
}

// sweepSession drives sweep-space and sweep-random through
// cli.SweepWorkload, and coord-ckpt through cli.CoordinateWorkload with
// workers in-process engine workers and a checkpoint file.
type sweepSession struct {
	w        *spec
	ref, key string
	exp      *expected
	workers  int
	ckpt     string
}

func (s *sweepSession) sweep(ctx context.Context, ref string) (*setconsensus.Summary, error) {
	var sum *setconsensus.Summary
	var err error
	if s.ckpt == "" {
		sum, err = cli.SweepWorkload(ctx, io.Discard, ref, s.w.refs, setconsensus.Oracle, s.w.k, -1)
	} else {
		// Every op starts from a fresh checkpoint: a leftover file would
		// make it resume a finished sweep.
		for _, p := range []string{s.ckpt, s.ckpt + ".bak"} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		sum, err = cli.CoordinateWorkload(ctx, io.Discard, ref, s.w.refs, setconsensus.Oracle, s.w.k, -1,
			cli.CoordinateOpts{Workers: s.workers, Checkpoint: s.ckpt})
	}
	if err != nil {
		return nil, err
	}
	return sum, checkSummary(sum)
}

func (s *sweepSession) op(ctx context.Context) opResult {
	sum, err := s.sweep(ctx, s.ref)
	if err != nil {
		return opResult{err: err}
	}
	return opResult{adv: sum.Adversaries(), err: s.exp.check(s.key, setconsensus.SummaryTable(sum))}
}

func (s *sweepSession) inputs() []string { return []string{s.ref + " " + strings.Join(s.w.refs, ",")} }

func (s *sweepSession) close() {
	if s.ckpt != "" {
		os.RemoveAll(filepath.Dir(s.ckpt))
	}
}

type analyzeSession struct {
	w   *spec
	ref string
	exp *expected
}

func (s *analyzeSession) op(ctx context.Context) opResult {
	rep, err := cli.RunAnalysis(ctx, io.Discard, s.ref, setconsensus.Oracle, s.w.k)
	if err != nil {
		return opResult{err: err}
	}
	if err := checkReport(rep); err != nil {
		return opResult{err: err}
	}
	return opResult{adv: rep.Search.Runs, err: s.exp.check(analysisKey(s.ref), setconsensus.AnalysisTable(rep))}
}

func (s *analyzeSession) inputs() []string { return []string{s.ref} }
func (s *analyzeSession) close()           {}

// daemonSession is an in-process setconsensusd on httptest, driven by one
// closed-loop client — a CLI -server caller waits for its reply before
// sending the next job. One client keeps each job's latency its own: with
// two, a sweep job's time depended on which kind of job the other client
// was running, and the median moved with that overlap.
type daemonSession struct {
	w                     *spec
	srv                   *service.Server
	ts                    *httptest.Server
	cl                    *service.Client
	seed, next            int64
	sweepReq, analysisReq service.JobRequest
	sweepKey, analysisKey string
	exp                   *expected
}

func openDaemon(w *spec, env *runEnv) (*daemonSession, error) {
	srv, err := service.New(service.Default())
	if err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	ref := seeded(w.ref, env.seed)
	s := &daemonSession{
		w: w, srv: srv, ts: ts, cl: &service.Client{Base: ts.URL},
		seed: env.seed,
		sweepReq: service.JobRequest{Kind: service.KindSweep, Refs: w.refs, Workload: ref,
			Params: service.JobParams{K: w.k}},
		analysisReq: service.JobRequest{Kind: service.KindAnalysis, Analysis: w.analysis},
		sweepKey:    sweepKey(ref, w.refs, w.k),
		analysisKey: analysisKey(w.analysis),
	}
	s.exp = newExpected(env, s.sweepKey, s.analysisKey)
	return s, nil
}

// isAnalysis places exactly one analysis job in every block of four
// consecutive jobs, at a seeded position, so the 3:1 mix is exact over
// any window rather than only on average.
func isAnalysis(seed, n int64) bool {
	block := n / 4
	r := rand.New(rand.NewPCG(uint64(seed), uint64(block)))
	return int64(r.IntN(4)) == n%4
}

// jobTiming is one job's life as the client and the server saw it.
type jobTiming struct {
	submitted, accepted, received time.Time // client clock: Submit called, Submit returned, terminal frame read
	created, started, finished    time.Time // server clock, from the JobStatus
	progressFrames                int
	adv                           int
}

// job submits one job and waits for its terminal frame.
func (s *daemonSession) job(ctx context.Context, analysis bool) (jobTiming, error) {
	req, key := s.sweepReq, s.sweepKey
	if analysis {
		req, key = s.analysisReq, s.analysisKey
	}
	var jt jobTiming
	jt.submitted = time.Now()
	st, err := s.cl.Submit(ctx, req)
	if err != nil {
		return jt, err
	}
	jt.accepted = time.Now()
	fin, err := s.cl.Wait(ctx, st.ID, func(service.JobProgress) { jt.progressFrames++ })
	jt.received = time.Now()
	if err != nil {
		return jt, err
	}
	if fin.State != service.StateDone {
		return jt, fmt.Errorf("bench: job %s %s: %s", fin.ID, fin.State, fin.Error)
	}
	jt.created = fin.Created
	if fin.Started != nil {
		jt.started = *fin.Started
	}
	if fin.Finished != nil {
		jt.finished = *fin.Finished
	}
	if analysis {
		if fin.Analysis == nil {
			return jt, fmt.Errorf("bench: job %s: done without a report", fin.ID)
		}
		if err := checkReport(fin.Analysis); err != nil {
			return jt, err
		}
		jt.adv = fin.Analysis.Search.Runs
		return jt, s.exp.check(key, setconsensus.AnalysisTable(fin.Analysis))
	}
	if fin.Summary == nil {
		return jt, fmt.Errorf("bench: job %s: done without a summary", fin.ID)
	}
	if err := checkSummary(fin.Summary); err != nil {
		return jt, err
	}
	jt.adv = fin.Summary.Adversaries()
	return jt, s.exp.check(key, setconsensus.SummaryTable(fin.Summary))
}

func (s *daemonSession) op(ctx context.Context) opResult {
	jt, err := s.job(ctx, isAnalysis(s.seed, s.next))
	s.next++
	return opResult{adv: jt.adv, err: err}
}

func (s *daemonSession) inputs() []string {
	return []string{s.sweepReq.Workload + " " + strings.Join(s.w.refs, ","), s.w.analysis}
}

func (s *daemonSession) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: daemon shutdown: %v\n", err)
	}
}
