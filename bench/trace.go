package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/cli"
	"setconsensus/internal/coord"
	"setconsensus/internal/service"
)

// span is one interval at a layer boundary, recorded by the benchmark
// around its own call into that layer. Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced run writes them out.
type tracer struct {
	base  time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) newOp() int { return int(t.ops.Add(1)) }

// addRel records a span whose ends are offsets from the trace's start and
// returns its id.
func (t *tracer) addRel(parent, op int, name string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start), End: int64(end)})
	return len(t.spans)
}

func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	return t.addRel(parent, op, name, start.Sub(t.base), end.Sub(t.base))
}

// end sets the end of a span recorded before its children.
func (t *tracer) end(id int, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end)
}

func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tally counts the ops of a traced run and the ones that failed.
type tally struct{ attempted, failed int }

func (t *tally) note(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", what, err)
	}
}

// Probe sizes: enough samples for a p90 with ten beyond it.
const (
	serviceProbeJobs = 120
	unbeatProbeOps   = 5
)

// traceRun is the per-layer run of workload w. It replays w's adversary
// stream through the sweep layers on one goroutine (enum, knowledge, sim,
// check, agg), runs w's op on engines configured as w's user path
// configures them (engine), and measures the service, coord and unbeat
// layers on their mechanism workloads — daemon-jobs, coord-ckpt and
// analyze-search — so every traced run reports every layer. Spans go to
// dir/<workload>.trace.json and a CPU profile of the whole run to
// dir/<workload>.cpu.pprof.
func traceRun(ctx context.Context, w *spec, env *runEnv, dir string) (metrics, tally, error) {
	var tl tally
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, tl, err
	}
	prof, err := os.Create(filepath.Join(dir, w.name+".cpu.pprof"))
	if err != nil {
		return nil, tl, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, tl, err
	}
	defer pprof.StopCPUProfile()

	tr := newTracer()
	m := metrics{}
	direct, want, err := traceReplay(ctx, w, env, tr, m, &tl)
	if err != nil {
		return nil, tl, err
	}
	if err := traceEngine(ctx, w, env, direct, want, m, &tl); err != nil {
		return nil, tl, err
	}
	if err := serviceProbe(ctx, env, tr, m, &tl); err != nil {
		return nil, tl, err
	}
	if err := coordProbe(ctx, env, tr, m, &tl); err != nil {
		return nil, tl, err
	}
	if err := unbeatProbe(ctx, env, tr, m, &tl); err != nil {
		return nil, tl, err
	}
	return m, tl, tr.write(filepath.Join(dir, w.name+".trace.json"), w.name)
}

// traceReplay replays w's stream untimed, then timed, and records the
// sweep layers. It returns the untimed replay's wall time — the engine's
// path done directly on one goroutine — and the timed replay's summary
// digest, which must match the stream's golden digest when one is stored.
func traceReplay(ctx context.Context, w *spec, env *runEnv, tr *tracer, m metrics, tl *tally) (time.Duration, string, error) {
	ref, t := w.stream(env.seed)
	src, err := setconsensus.ParseWorkload(ref)
	if err != nil {
		return 0, "", err
	}
	// The job service and the analysis compile stage build graphs with a
	// Builder; the CLI's engines take whichever path the defaults select.
	cache := (w.kind == kindSweep || w.kind == kindCoord) && engineCachesGraphs()
	// The first replay only warms the pools, so the kept ones and the timed
	// one after them all run warm.
	_, _, err = replay(ctx, src, w.refs, w.k, t, cache, false, nil)
	tl.note("warm-up replay", err)
	if err != nil {
		return 0, "", err
	}
	var walls []time.Duration
	for len(walls) < repeats(walls) {
		_, untimed, err := replay(ctx, src, w.refs, w.k, t, cache, false, nil)
		tl.note("untimed replay", err)
		if err != nil {
			return 0, "", err
		}
		walls = append(walls, untimed.wall)
	}
	direct := medianDuration(walls)
	op := tr.newOp()
	begin := time.Since(tr.base)
	sum, st, err := replay(ctx, src, w.refs, w.k, t, cache, true, tr)
	if err != nil {
		tl.note("timed replay", err)
		return 0, "", err
	}
	tr.addRel(0, op, "replay", begin, time.Since(tr.base))
	got := digest(setconsensus.SummaryTable(sum))
	// Golden sweep digests hold for the CLI's crash bound only.
	if want, ok := env.golden[sweepKey(ref, w.refs, w.k)]; ok && t == setconsensus.PatternCrashBound && got != want {
		err = fmt.Errorf("replay of %s: digest %s, want %s", ref, got[:12], want[:12])
	}
	tl.note("timed replay", err)

	adv := float64(st.adv)
	m.set("enum.adv", adv, "count")
	m.set("enum.busy_s", st.enum.Seconds(), "s")
	m.set("enum.ns_per_adv", float64(st.enum)/adv, "ns")
	m.set("knowledge.fingerprint_ns", float64(st.fingerprint)/adv, "ns")
	m.set("knowledge.new_ns", float64(st.newGraph)/adv, "ns")
	m.set("knowledge.full_ns", ratio(float64(st.fullBuild), float64(st.fullBuilds)), "ns")
	m.set("knowledge.patch_ns", ratio(float64(st.patchBuild), float64(st.patches)), "ns")
	m.set("knowledge.revive_ns", ratio(float64(st.reviveBuild), float64(st.revives)), "ns")
	m.set("knowledge.full_builds", float64(st.fullBuilds), "count")
	m.set("knowledge.patches", float64(st.patches), "count")
	m.set("knowledge.revives", float64(st.revives), "count")
	m.set("knowledge.busy_s", st.knowledgeBusy().Seconds(), "s")
	m.set("sim.runs", float64(st.runs), "count")
	m.set("sim.busy_s", st.sim.Seconds(), "s")
	m.set("sim.ns_per_run", float64(st.sim)/float64(st.runs), "ns")
	m.set("check.verifies", float64(st.verifies), "count")
	m.set("check.busy_s", st.check.Seconds(), "s")
	m.set("check.violations", float64(st.violations), "count")
	m.set("agg.folds", float64(st.folds), "count")
	m.set("agg.busy_s", st.agg.Seconds(), "s")
	m.set("trace.overhead_frac", st.stageSum().Seconds()/direct.Seconds()-1, "ratio")
	return direct, got, nil
}

// minRepeated is the work a trace repeats a small untraced op for, so
// that the median it reports is of warm runs: one op of a sweep workload
// is longer and runs once.
const minRepeated = time.Second

// repeats is how many times to run an op whose runs so far took done.
func repeats(done []time.Duration) int {
	if len(done) == 0 {
		return 1
	}
	return min(max(1, int(minRepeated/max(done[0], time.Microsecond))), 50)
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// engineFor builds the engine w's user path builds: the CLI's options
// for sweeps and analyses, the job service's for daemon-jobs (graph cache
// off). parallelism 0 keeps the default.
func engineFor(w *spec, parallelism int) (*setconsensus.Engine, error) {
	p := setconsensus.DefaultEngineParams()
	if parallelism > 0 {
		p.Parallelism = parallelism
	}
	if w.k > 0 {
		p.K = w.k
	}
	if w.kind != kindAnalyze {
		p.T = setconsensus.PatternCrashBound
	}
	if w.kind == kindDaemon {
		p.GraphCache = 0
	}
	return setconsensus.NewEngine(p)
}

// engineRun runs one op of w directly on an engine built by engineFor and
// returns its wall and CPU time and the engine's counters. A sweep's
// summary must match want, the replay's digest of the same stream.
func engineRun(ctx context.Context, w *spec, env *runEnv, parallelism int, want string, tl *tally) (wall, cpu time.Duration, stats setconsensus.EngineStats, err error) {
	eng, err := engineFor(w, parallelism)
	if err != nil {
		return 0, 0, stats, err
	}
	defer eng.Close()
	cpu0 := cpuTime()
	start := time.Now()
	if w.kind == kindAnalyze {
		var rep *setconsensus.AnalysisReport
		if rep, err = eng.Analyze(ctx, seeded(w.ref, env.seed)); err == nil {
			err = checkReport(rep)
		}
	} else {
		ref, _ := w.stream(env.seed)
		var src setconsensus.Source
		if src, err = setconsensus.ParseWorkload(ref); err == nil {
			var sum *setconsensus.Summary
			if sum, err = eng.SweepSource(ctx, w.refs, src); err == nil {
				err = checkSummary(sum)
				if got := digest(setconsensus.SummaryTable(sum)); err == nil && got != want {
					err = fmt.Errorf("engine sweep of %s: digest %s, replay %s", ref, got[:12], want[:12])
				}
			}
		}
	}
	wall, cpu = time.Since(start), cpuTime()-cpu0
	tl.note(fmt.Sprintf("engine op at parallelism %d", parallelism), err)
	if err != nil {
		return 0, 0, stats, err
	}
	return wall, cpu, eng.Stats(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceEngine records the engine layer: counters and CPU utilisation of
// one op at the default parallelism, the same op at parallelism 1, and
// the executor overhead — the parallelism-1 op's time beyond direct, the
// time the same layers take on the same stream when called directly.
func traceEngine(ctx context.Context, w *spec, env *runEnv, direct time.Duration, want string, m metrics, tl *tally) error {
	wall, cpu, s, err := engineRun(ctx, w, env, 0, want, tl)
	if err != nil {
		return err
	}
	var p1s []time.Duration
	for len(p1s) < repeats(p1s) {
		p1, _, _, err := engineRun(ctx, w, env, 1, want, tl)
		if err != nil {
			return err
		}
		p1s = append(p1s, p1)
	}
	p1 := medianDuration(p1s)
	m.set("engine.graphs_rebuilt", float64(s.GraphsRebuilt), "count")
	m.set("engine.graphs_revived", float64(s.GraphsRevived), "count")
	m.set("engine.graphs_patched", float64(s.GraphsPatched), "count")
	m.set("engine.cached_graphs", float64(s.CachedGraphs), "count")
	m.set("engine.kit_hit_ratio", ratio(float64(s.RunKitHits), float64(s.RunKitHits+s.RunKitMisses)), "ratio")
	m.set("engine.chunk_hit_ratio", ratio(float64(s.ChunkHits), float64(s.ChunkHits+s.ChunkMisses)), "ratio")
	m.set("engine.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(env.procs)), "ratio")
	m.set("engine.p1_op_s", p1.Seconds(), "s")
	m.set("engine.executor_overhead_s", (p1 - direct).Seconds(), "s")
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serviceProbe runs serviceProbeJobs jobs of daemon-jobs' mix through an
// in-process setconsensusd with daemon-jobs' closed-loop client and
// records where each job's time went: submit, queue wait, run, delivery
// of the terminal frame.
func serviceProbe(ctx context.Context, env *runEnv, tr *tracer, m metrics, tl *tally) error {
	w := ofKind(env.suite, kindDaemon)
	s, err := w.open(ctx, env)
	tl.note("service warm-up", err)
	if err != nil {
		return err
	}
	ds := s.(*daemonSession)
	defer ds.close()
	if err := prepare(ctx, ds, env); err != nil {
		return err
	}
	jobs := make([]jobTiming, serviceProbeJobs)
	errs := make([]error, serviceProbeJobs)
	for n := range jobs {
		jobs[n], errs[n] = ds.job(ctx, isAnalysis(env.seed, int64(n)))
	}
	var submit, queue, run, deliver []float64
	rejected, frames := 0, 0
	for i, jt := range jobs {
		tl.note("service job", errs[i])
		if errs[i] != nil {
			if service.IsOverload(errs[i]) {
				rejected++
			}
			continue
		}
		submit = append(submit, millis(jt.accepted.Sub(jt.submitted)))
		queue = append(queue, millis(jt.started.Sub(jt.created)))
		run = append(run, millis(jt.finished.Sub(jt.started)))
		deliver = append(deliver, millis(jt.received.Sub(jt.finished)))
		frames += jt.progressFrames
		op := tr.newOp()
		root := tr.add(0, op, "service.job", jt.submitted, jt.received)
		tr.add(root, op, "service.submit", jt.submitted, jt.accepted)
		tr.add(root, op, "service.queue", jt.created, jt.started)
		tr.add(root, op, "service.run", jt.started, jt.finished)
		tr.add(root, op, "service.deliver", jt.finished, jt.received)
	}
	m.set("service.submit_p50_ms", quantile(submit, 0.5), "ms")
	m.set("service.queue_wait_p50_ms", quantile(queue, 0.5), "ms")
	m.set("service.queue_wait_p90_ms", quantile(queue, 0.9), "ms")
	m.set("service.run_p50_ms", quantile(run, 0.5), "ms")
	m.set("service.run_p90_ms", quantile(run, 0.9), "ms")
	m.set("service.deliver_p50_ms", quantile(deliver, 0.5), "ms")
	m.set("service.rejected", float64(rejected), "count")
	m.set("service.progress_frames", float64(frames), "count")
	return nil
}

// timedWorker times every range a coordinator worker sweeps.
type timedWorker struct {
	coord.Worker
	tr     *tracer
	ranges []time.Duration
}

func (t *timedWorker) Sweep(ctx context.Context, r coord.Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	start := time.Now()
	sum, err := t.Worker.Sweep(ctx, r, progress)
	end := time.Now()
	t.ranges = append(t.ranges, end.Sub(start))
	t.tr.add(0, t.tr.newOp(), "coord.range", start, end)
	return sum, err
}

// coordProbe runs one op of coord-ckpt with the coordinator and engine
// workers built as cli.CoordinateWorkload builds them, each worker wrapped
// in a range timer, and records lease, merge and checkpoint overhead.
func coordProbe(ctx context.Context, env *runEnv, tr *tracer, m metrics, tl *tally) error {
	w := ofKind(env.suite, kindCoord)
	ref := seeded(w.ref, env.seed)
	src, err := setconsensus.ParseWorkload(ref)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(env.tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(env.tmp)
	p := coord.Default()
	p.CheckpointPath = filepath.Join(env.tmp, "probe.ckpt")
	if n, known := src.Count(); known {
		p.Total = n
	}
	c, err := coord.New(src.Label(), w.refs, p)
	if err != nil {
		return err
	}
	timers := make([]*timedWorker, env.procs)
	workers := make([]coord.Worker, env.procs)
	for i := range workers {
		eng := setconsensus.New(setconsensus.WithBackend(setconsensus.Oracle),
			setconsensus.WithCrashBound(setconsensus.PatternCrashBound), setconsensus.WithDegree(w.k))
		timers[i] = &timedWorker{Worker: coord.NewEngineWorker(fmt.Sprintf("local-%d", i), eng, w.refs, src, 0), tr: tr}
		workers[i] = timers[i]
	}
	start := time.Now()
	sum, err := c.Run(ctx, workers, nil)
	wall := time.Since(start)
	if err == nil {
		err = checkSummary(sum)
	}
	if want, ok := env.golden[sweepKey(ref, w.refs, w.k)]; ok && err == nil {
		if got := digest(setconsensus.SummaryTable(sum)); got != want {
			err = fmt.Errorf("coordinated sweep of %s: digest %s, want %s", ref, got[:12], want[:12])
		}
	}
	tl.note("coordinated sweep", err)
	if err != nil {
		return err
	}
	fi, err := os.Stat(p.CheckpointPath)
	if err != nil {
		return err
	}
	var ranges []float64
	var busy time.Duration
	for _, t := range timers {
		for _, d := range t.ranges {
			ranges = append(ranges, millis(d))
			busy += d
		}
	}
	cs := c.Stats()
	workersF := float64(len(workers))
	m.set("coord.ranges", float64(cs.RangesDone), "count")
	m.set("coord.range_p50_ms", quantile(ranges, 0.5), "ms")
	m.set("coord.range_p90_ms", quantile(ranges, 0.9), "ms")
	m.set("coord.worker_busy_frac", busy.Seconds()/(wall.Seconds()*workersF), "ratio")
	m.set("coord.overhead_s", wall.Seconds()-busy.Seconds()/workersF, "s")
	m.set("coord.checkpoint_bytes", float64(fi.Size()), "B")
	m.set("coord.retries", float64(cs.RangeRetries), "count")
	m.set("coord.lease_expiries", float64(cs.LeaseExpiries), "count")
	return nil
}

// stageWriter timestamps what cli.RunAnalysis prints: a "stage <name>..."
// line as each stage opens, then the report table when the last closes.
type stageWriter struct {
	at    []time.Time
	lines []string
}

func (s *stageWriter) Write(p []byte) (int, error) {
	s.at = append(s.at, time.Now())
	s.lines = append(s.lines, string(p))
	return len(p), nil
}

// stages returns each stage's interval, keyed by stage name.
func (s *stageWriter) stages() map[string][2]time.Time {
	out := make(map[string][2]time.Time)
	for i := 0; i+1 < len(s.lines); i++ {
		if name, ok := strings.CutPrefix(s.lines[i], "stage "); ok {
			out[strings.TrimSuffix(name, "...\n")] = [2]time.Time{s.at[i], s.at[i+1]}
		}
	}
	return out
}

// unbeatProbe runs analyze-search's op unbeatProbeOps times through
// cli.RunAnalysis and records the median time of each search stage.
func unbeatProbe(ctx context.Context, env *runEnv, tr *tracer, m metrics, tl *tally) error {
	w := ofKind(env.suite, kindAnalyze)
	ref := seeded(w.ref, env.seed)
	exp := newExpected(env, analysisKey(ref))
	per := map[string][]float64{}
	var frac []float64
	var rep *setconsensus.AnalysisReport
	for i := 0; i < unbeatProbeOps; i++ {
		sw := &stageWriter{}
		start := time.Now()
		r, err := cli.RunAnalysis(ctx, sw, ref, setconsensus.Oracle, w.k)
		end := time.Now()
		if err == nil {
			if err = checkReport(r); err == nil {
				err = exp.check(analysisKey(ref), setconsensus.AnalysisTable(r))
			}
		}
		tl.note("analysis", err)
		if err != nil {
			return err
		}
		rep = r
		op := tr.newOp()
		root := tr.add(0, op, "unbeat.analysis", start, end)
		for _, name := range []string{"compile", "width-1", "width-2"} {
			iv, ok := sw.stages()[name]
			if !ok {
				return fmt.Errorf("bench: analysis %s printed no %s stage", ref, name)
			}
			per[name] = append(per[name], iv[1].Sub(iv[0]).Seconds())
			tr.add(root, op, "unbeat."+name, iv[0], iv[1])
			if name == "compile" {
				frac = append(frac, iv[1].Sub(iv[0]).Seconds()/end.Sub(start).Seconds())
			}
		}
	}
	m.set("unbeat.compile_s", quantile(per["compile"], 0.5), "s")
	m.set("unbeat.width1_s", quantile(per["width-1"], 0.5), "s")
	m.set("unbeat.width2_s", quantile(per["width-2"], 0.5), "s")
	m.set("unbeat.compile_frac", quantile(frac, 0.5), "ratio")
	m.set("unbeat.runs", float64(rep.Search.Runs), "count")
	m.set("unbeat.candidates", float64(rep.Search.Candidates), "count")
	return nil
}
