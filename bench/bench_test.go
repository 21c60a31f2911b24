package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// tinySuite mirrors defaultSuite on inputs small enough for a smoke test.
func tinySuite() []*spec {
	return []*spec{
		{name: "sweep-space", kind: kindSweep, ref: "space:n=3,t=2,r=2,v=0..2", refs: bothUnbeatable, k: 2},
		{name: "sweep-random", kind: kindSweep, ref: "random:n=4,t=2,maxv=2,maxr=3,count=500,seed={seed}",
			refs: bothUnbeatable, k: 2},
		{name: "daemon-jobs", kind: kindDaemon, ref: "space:n=3,t=2,r=2,v=0..1",
			analysis: "search:optmin:n=3,t=2,r=2,width=2", refs: bothUnbeatable, k: 1},
		{name: "coord-ckpt", kind: kindCoord, ref: "space:n=3,t=2,r=2,v=0..1", refs: bothUnbeatable, k: 1},
		{name: "analyze-search", kind: kindAnalyze, ref: "search:upmin:n=3,t=2,r=2,width=2",
			space: "space:n=3,t=2,r=2,v=0..1", t: 2, refs: []string{"upmin"}, k: 1},
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testEnv(t *testing.T) *runEnv {
	t.Helper()
	gold, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	return &runEnv{seed: 1, procs: 2, tmp: t.TempDir(), golden: gold, suite: tinySuite()}
}

// checkNames fails unless got names exactly the metrics want lists, each
// with the unit BENCHMARK.json gives it.
func checkNames(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestSuiteMatchesBenchmarkJSON(t *testing.T) {
	s := loadTestSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds default %d", s.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range defaultSuite() {
		tiny := tinySuite()[i]
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d is %s, BENCHMARK.json lists %v", i, w.name, names)
		}
		if tiny.name != w.name || tiny.kind != w.kind {
			t.Errorf("tiny workload %d is %s, want %s of the same kind", i, tiny.name, w.name)
		}
	}
}

// TestWorkloads runs every workload for one op on tiny inputs and
// checks the end-to-end metric names against BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadTestSpec(t).EndToEnd {
		want[m.Name] = m.Unit
	}
	env := testEnv(t)
	ctx := context.Background()
	for _, w := range env.suite {
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			s, err := w.open(ctx, env)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			if err := prepare(ctx, s, env); err != nil {
				t.Fatal(err)
			}
			win := measure(ctx, s, time.Millisecond)
			res := win.result()
			if res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			addProcessMetrics(res.Metrics, []float64{time.Since(start).Seconds()}, 1024)
			checkNames(t, res.Metrics, want)
		})
	}
}

// TestDigestMismatchFails checks that an output differing from its
// expected digest fails the op.
func TestDigestMismatchFails(t *testing.T) {
	env := testEnv(t)
	w := env.suite[0]
	env.golden = map[string]string{sweepKey(seeded(w.ref, env.seed), w.refs, w.k): "0000000000000000"}
	s, err := w.open(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if r := s.op(context.Background()); r.err == nil {
		t.Fatal("op matched a wrong golden digest")
	}
}

// TestTracedRun runs the traced run of every workload on tiny inputs and
// checks the per-layer metric names against BENCHMARK.json.
func TestTracedRun(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadTestSpec(t).PerLayer {
		want[m.Name] = m.Unit
	}
	env := testEnv(t)
	for _, w := range env.suite {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			m, tl, err := traceRun(context.Background(), w, env, dir)
			if err != nil {
				t.Fatal(err)
			}
			if tl.failed != 0 {
				t.Fatalf("%d of %d traced ops failed", tl.failed, tl.attempted)
			}
			checkNames(t, m, want)
			for _, f := range []string{w.name + ".trace.json", w.name + ".cpu.pprof"} {
				if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"faster", base, shift(-20), true, "better"},
		{"same", base, slices.Clone(base), true, "unchanged"},
		{"slower within bound", base, shift(5), true, "unchanged"},
		{"slower beyond bound", base, shift(20), true, "worse"},
		{"higher is better", base, shift(20), false, "better"},
		{"noisy", base, noisy, true, "unresolved"},
		{"noisy baseline, every run slower", noisy, shift(100), true, "worse"},
		{"noisy baseline, some runs overlap", noisy, shift(45), true, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, tc.lower, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
