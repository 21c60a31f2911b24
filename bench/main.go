// Command bench is the repository benchmark. It drives the paths users
// run — CLI sweeps on the default engine, setconsensusd jobs over HTTP, a
// checkpointed coordinated sweep and the unbeatability search — on seeded
// inputs for a fixed window, checks every output against a golden digest,
// and prints end-to-end metrics; with -trace 1 it prints the per-layer
// breakdown instead. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload sweep-space --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh compare A.jsonl B.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds; the smoke test keeps
	// the two equal.
	defaultSeconds = 24
	// setupSamples is how many cold processes time set-up in one run.
	setupSamples = 9
	// buildDir holds everything the benchmark writes inside the checkout.
	buildDir = ".bench_build"
	// t0Env carries the parent's launch time of a child, so set-up counts
	// process start and package initialisation.
	t0Env = "BENCH_T0"
)

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// envRecord is where and on what a run measured.
type envRecord struct {
	Host     string   `json:"host"`
	NProc    int      `json:"nproc"`
	P        int      `json:"p"`
	Go       string   `json:"go"`
	Commit   string   `json:"commit"`
	Seed     int64    `json:"seed"`
	Inputs   []string `json:"inputs"`
	AdvPerOp float64  `json:"adv_per_op"`
}

// record is one line of a -out result file.
type record struct {
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Env      envRecord `json:"env"`
	result
}

// childReport is what a measurement process hands its parent.
type childReport struct {
	SetupS float64   `json:"setup_s"`
	Result result    `json:"result"`
	Env    envRecord `json:"env"`
}

type options struct {
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every seeded input")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	traceDir := fs.String("trace-dir", filepath.Join(buildDir, "trace"), "where a traced run writes <workload>.trace.json and <workload>.cpu.pprof")
	out := fs.String("out", "", "append each workload's result record to this JSON-lines file")
	child := fs.String("child", "", "internal: run as a measurement process (setup or run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	suite := defaultSuite()
	selected := suite
	if *workload != "all" {
		w := find(suite, *workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*spec{w}
	}
	if *child != "" {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "bench: a measurement process runs one workload")
			return 2
		}
		rep, err := childMain(selected[0], suite, o, *child == "setup")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", selected[0].name, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range selected {
		rec, err := parentRun(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		printRecord(rec)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// parentRun measures one workload: setupSamples-1 processes that only set
// up, then the measurement process, whose peak RSS comes from its rusage.
func parentRun(w *spec, o options) (*record, error) {
	var setups []float64
	if !o.trace {
		for i := 1; i < setupSamples; i++ {
			rep, _, err := spawn(w, o, "setup")
			if err != nil {
				return nil, err
			}
			setups = append(setups, rep.SetupS)
		}
	}
	rep, maxRSS, err := spawn(w, o, "run")
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Trace: o.trace, Env: rep.Env, result: rep.Result}
	if !o.trace {
		addProcessMetrics(rec.Metrics, append(setups, rep.SetupS), maxRSS)
	}
	return rec, nil
}

// addProcessMetrics adds the end-to-end metrics only the parent sees: the
// median set-up time of its cold processes and the measurement process's
// peak RSS, given in KiB.
func addProcessMetrics(m metrics, setups []float64, maxRSSKiB int64) {
	m.set("setup_s", quantile(setups, 0.5), "s")
	m.set("peak_rss_mb", float64(maxRSSKiB)*1024/1e6, "MB")
}

// spawn runs the benchmark binary as a measurement process and returns
// its report and its peak resident set size in KiB.
func spawn(w *spec, o options, mode string) (*childReport, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-trace-dir", o.traceDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.Env = append(os.Environ(), t0Env+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s process: %w", mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s process report: %w", mode, err)
	}
	var maxRSS int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = ru.Maxrss
	}
	return &rep, maxRSS, nil
}

// procs is P: the host's CPUs, capped at four so hosts of different sizes
// run comparable loads.
func procs() int { return min(runtime.NumCPU(), 4) }

// launched is when the parent started this process, or now when run
// directly.
func launched() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64); err == nil {
		return time.Unix(0, ns)
	}
	return time.Now()
}

// childMain is a measurement process: set up and warm up, then — unless
// setupOnly — run the timed window, or the traced run.
func childMain(w *spec, suite []*spec, o options, setupOnly bool) (*childReport, error) {
	t0 := launched()
	p := procs()
	runtime.GOMAXPROCS(p)
	gold, err := golden()
	if err != nil {
		return nil, err
	}
	env := &runEnv{seed: o.seed, procs: p, golden: gold, suite: suite,
		tmp: filepath.Join(buildDir, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	ctx := context.Background()
	rep := &childReport{Env: environment(env)}
	if o.trace {
		m, tl, err := traceRun(ctx, w, env, o.traceDir)
		if err != nil {
			return nil, err
		}
		ref, _ := w.stream(o.seed)
		rep.Env.Inputs = []string{ref}
		rep.Env.AdvPerOp = m["enum.adv"].Value
		rep.Result = result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
		return rep, nil
	}
	s, err := w.open(ctx, env)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	rep.SetupS = time.Since(t0).Seconds()
	rep.Env.Inputs = s.inputs()
	if setupOnly {
		return rep, nil
	}
	if err := prepare(ctx, s, env); err != nil {
		return nil, fmt.Errorf("expected output: %w", err)
	}
	win := measure(ctx, s, time.Duration(o.seconds)*time.Second)
	rep.Result = win.result()
	if ok := len(win.lat) - win.failed; ok > 0 {
		rep.Env.AdvPerOp = float64(win.adv) / float64(ok)
	}
	return rep, nil
}

// window is what one timed window measured.
type window struct {
	lat             []float64 // ms per op
	adv, failed     int
	elapsed         time.Duration
	mallocs, allocB uint64
}

// measure runs ops one after another — a single closed-loop client —
// until d has passed; the op started inside the window finishes and
// counts. Allocation counts are the runtime.MemStats delta over the window.
func measure(ctx context.Context, s session, d time.Duration) *window {
	w := &window{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		t := time.Now()
		r := s.op(ctx)
		w.lat = append(w.lat, millis(time.Since(t)))
		w.adv += r.adv
		if r.err != nil {
			w.failed++
			if w.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: op failed: %v\n", r.err)
			}
		}
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocB = after.TotalAlloc - before.TotalAlloc
	return w
}

// result renders the window's end-to-end metrics; the parent adds setup_s
// and peak_rss_mb.
func (w *window) result() result {
	ops := float64(len(w.lat))
	secs := w.elapsed.Seconds()
	m := metrics{}
	m.set("adv_per_s", float64(w.adv)/secs, "1/s")
	m.set("op_p50_ms", quantile(w.lat, 0.5), "ms")
	m.set("op_p90_ms", quantile(w.lat, 0.9), "ms")
	m.set("ops_per_s", ops/secs, "1/s")
	m.set("allocs_per_op", float64(w.mallocs)/ops, "count")
	m.set("bytes_per_op", float64(w.allocB)/ops/1e6, "MB")
	return result{Correct: w.failed == 0, Attempted: len(w.lat), Failed: w.failed, Metrics: m}
}

// quantile is the q-quantile of xs, interpolated linearly between the
// closest ranks; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func environment(env *runEnv) envRecord {
	host, _ := os.Hostname()
	return envRecord{Host: host, NProc: runtime.NumCPU(), P: env.procs, Go: runtime.Version(),
		Commit: commit(), Seed: env.seed}
}

// commit is the checkout's HEAD, read from .git so nothing outside the
// checkout is consulted, or "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func appendRecord(path string, rec *record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(blob, '\n'))
	return errors.Join(err, f.Close())
}

// printRecord prints every metric by name and unit, then the result as
// the last line of standard output.
func printRecord(rec *record) {
	e := rec.Env
	fmt.Printf("%s  seed=%d  P=%d/%d  %s  commit=%s  host=%s\n", rec.Workload, e.Seed, e.P, e.NProc, e.Go, e.Commit, e.Host)
	fmt.Printf("  inputs: %s  (%.0f adversaries per op)\n", strings.Join(e.Inputs, " | "), e.AdvPerOp)
	fmt.Printf("  ops: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %16.6g %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	blob, _ := json.Marshal(rec.result)
	fmt.Println(string(blob))
}
