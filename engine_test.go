package setconsensus_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

func collapseAdv(t testing.TB, k, r int) (*setconsensus.Adversary, int) {
	t.Helper()
	cp := setconsensus.CollapseParams{K: k, R: r, ExtraCorrect: k + 2}
	adv, err := setconsensus.Collapse(cp)
	if err != nil {
		t.Fatal(err)
	}
	return adv, setconsensus.CollapseT(cp)
}

func TestEngineRunAllBackendsAgree(t *testing.T) {
	adv, tb := collapseAdv(t, 2, 3)
	ctx := context.Background()
	for _, ref := range []string{"optmin", "upmin"} {
		var results []*setconsensus.Result
		for _, bk := range []setconsensus.BackendKind{setconsensus.Oracle, setconsensus.Goroutines, setconsensus.Wire} {
			eng := setconsensus.New(
				setconsensus.WithBackend(bk),
				setconsensus.WithCrashBound(tb),
				setconsensus.WithDegree(2),
			)
			res, err := eng.Run(ctx, ref, adv)
			if err != nil {
				t.Fatalf("%s/%s: %v", ref, bk, err)
			}
			results = append(results, res)
		}
		ref0 := results[0]
		for _, res := range results[1:] {
			for i := range ref0.Decisions {
				a, b := ref0.Decisions[i], res.Decisions[i]
				if (a == nil) != (b == nil) || (a != nil && *a != *b) {
					t.Fatalf("%s: %s and %s disagree at process %d: %+v vs %+v",
						ref, ref0.Backend, res.Backend, i, a, b)
				}
			}
		}
	}
}

func TestEngineOracleVsGoroutinesRandomAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	oracle := setconsensus.New(setconsensus.WithCrashBound(3), setconsensus.WithDegree(2))
	engine := setconsensus.New(
		setconsensus.WithBackend(setconsensus.Goroutines),
		setconsensus.WithCrashBound(3),
		setconsensus.WithDegree(2),
	)
	for trial := 0; trial < 50; trial++ {
		adv := model.Random(rng, model.RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3})
		for _, ref := range []string{"optmin", "upmin"} {
			a, err := oracle.Run(ctx, ref, adv)
			if err != nil {
				t.Fatal(err)
			}
			b, err := engine.Run(ctx, ref, adv)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Decisions {
				da, db := a.Decisions[i], b.Decisions[i]
				if (da == nil) != (db == nil) || (da != nil && *da != *db) {
					t.Fatalf("%s trial %d process %d: oracle %+v goroutines %+v (%s)",
						ref, trial, i, da, db, adv)
				}
			}
		}
	}
}

// graphSpace is the exhaustive space the graph-lifetime tests sweep:
// 776 adversaries in blocks that share a failure pattern.
var graphSpace = setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}

// graphsBuilt is the number of knowledge graphs an engine has built,
// revived or patched.
func graphsBuilt(eng *setconsensus.Engine) int64 {
	s := eng.Stats()
	return s.GraphsRebuilt + s.GraphsRevived + s.GraphsPatched
}

// TestEngineBuildsOneGraphPerAdversary pins the one graph lifetime
// through Engine.Stats: on every path — Run, Sweep, SweepSourceStream
// and SweepSource — a sweep of A adversaries × P protocols builds,
// revives or patches exactly A graphs in its workers' Builders, one per
// adversary, shared by its P protocols. Sweep's Results keep their
// deterministic order: adversary-major, protocol-minor.
func TestEngineBuildsOneGraphPerAdversary(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin", "floodmin", "u-earlycount"}
	advs, err := graphSpace.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	src, err := setconsensus.SpaceSource(graphSpace)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		advs int
		run  func(eng *setconsensus.Engine) error
	}{
		{"Run", 1, func(eng *setconsensus.Engine) error {
			_, err := eng.Run(ctx, "optmin", advs[len(advs)-1])
			return err
		}},
		{"Sweep", len(advs), func(eng *setconsensus.Engine) error {
			results, err := eng.Sweep(ctx, refs, advs)
			if err != nil {
				return err
			}
			for i, r := range results {
				if r.Adv() != advs[i/len(refs)] || r.Ref != refs[i%len(refs)] {
					t.Fatalf("result[%d] is %s on %s, want %s on %s", i, r.Ref, r.Adv(), refs[i%len(refs)], advs[i/len(refs)])
				}
			}
			return nil
		}},
		{"SweepSourceStream", len(advs), func(eng *setconsensus.Engine) error {
			return eng.SweepSourceStream(ctx, refs, src, func(*setconsensus.Result) {})
		}},
		{"SweepSource", len(advs), func(eng *setconsensus.Engine) error {
			_, err := eng.SweepSource(ctx, refs, src)
			return err
		}},
	}
	for _, par := range []int{1, 3} {
		eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(2), setconsensus.WithParallelism(par))
		for _, path := range paths {
			for round := 0; round < 2; round++ { // cold, then warm kits
				before := graphsBuilt(eng)
				if err := path.run(eng); err != nil {
					t.Fatalf("%s parallelism=%d: %v", path.name, par, err)
				}
				if got := graphsBuilt(eng) - before; got != int64(path.advs) {
					t.Errorf("%s parallelism=%d round %d: %d graphs for %d adversaries × %d protocols, want one per adversary",
						path.name, par, round, got, path.advs, len(refs))
				}
			}
		}
	}
}

// TestSweepResultsRebuildTheirGraphs pins what a kept Result carries,
// since no Result keeps its graph: every Sweep Result over graphSpace has
// the GraphStats of a fresh NewGraph of its adversary, to the horizon
// its protocols share, and KnowledgeGraph rebuilds a graph equal to that
// one at every node — Min, HiddenCapacity and Vals.
func TestSweepResultsRebuildTheirGraphs(t *testing.T) {
	refs := []string{"optmin", "upmin"}
	advs, err := graphSpace.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(2), setconsensus.WithParallelism(2))
	results, err := eng.Sweep(context.Background(), refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 0
	for _, ref := range refs {
		spec, err := setconsensus.DefaultRegistry().Lookup(ref)
		if err != nil {
			t.Fatal(err)
		}
		horizon = max(horizon, spec.WorstCaseTime(setconsensus.Params{N: 3, T: 2, K: 2}))
	}
	for i, r := range results {
		want := setconsensus.NewGraph(r.Adv(), horizon)
		wantStats := setconsensus.GraphStats{Horizon: horizon}
		for p := 0; p < want.Adv.N(); p++ {
			if want.Active(p, horizon) {
				wantStats.MaxHiddenCapacity = max(wantStats.MaxHiddenCapacity, want.HiddenCapacity(p, horizon))
			}
		}
		if r.GraphStats == nil || *r.GraphStats != wantStats {
			t.Fatalf("result[%d] on %s: GraphStats %+v, want %+v", i, r.Adv(), r.GraphStats, wantStats)
		}
		got := r.KnowledgeGraph()
		if got == nil || got.Horizon != horizon {
			t.Fatalf("result[%d] on %s: KnowledgeGraph %v, want a graph to horizon %d", i, r.Adv(), got, horizon)
		}
		for p := 0; p < want.Adv.N(); p++ {
			for m := 0; m <= horizon; m++ {
				if got.Min(p, m) != want.Min(p, m) || got.HiddenCapacity(p, m) != want.HiddenCapacity(p, m) || !got.Vals(p, m).Equal(want.Vals(p, m)) {
					t.Fatalf("result[%d] on %s: KnowledgeGraph differs from NewGraph at ⟨%d,%d⟩", i, r.Adv(), p, m)
				}
			}
		}
	}
}

// TestRunAfterPatternChange pins what the revive chain must not carry
// across calls: a caller may change an adversary's failure pattern in
// place between two calls on one engine — here process 0's silent
// round-1 crash becomes a full send — and the second Run, and a Sweep
// after it, must decide as a fresh engine does on the changed
// adversary, not revive the graph of the pattern as it was.
func TestRunAfterPatternChange(t *testing.T) {
	ctx := context.Background()
	eng := setconsensus.New(setconsensus.WithDegree(1), setconsensus.WithParallelism(1))
	adv := setconsensus.NewBuilder(4, 1).Input(0, 0).CrashSilent(0, 1).MustBuild()
	if _, err := eng.Run(ctx, "optmin", adv); err != nil {
		t.Fatal(err)
	}
	crash, _ := adv.Pattern.Crash(0)
	crash.Delivered = bitset.Full(4)
	adv.Pattern.SetCrash(crash)
	want, err := setconsensus.New(setconsensus.WithDegree(1)).Run(ctx, "optmin", adv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(ctx, "optmin", adv)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Run after the pattern changed: %s, a fresh engine %s", got, want)
	}
	crash.Delivered = bitset.New(4)
	adv.Pattern.SetCrash(crash)
	want, err = setconsensus.New(setconsensus.WithDegree(1)).Run(ctx, "optmin", adv)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Sweep(ctx, []string{"optmin"}, []*setconsensus.Adversary{adv})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].String() != want.String() {
		t.Fatalf("Sweep after the pattern changed back: %s, a fresh engine %s", results[0], want)
	}
}

// TestEngineSweepEmptyInputs pins the documented asymmetry: no protocols
// is an error, no adversaries is an empty result.
func TestEngineSweepEmptyInputs(t *testing.T) {
	eng := setconsensus.New()
	ctx := context.Background()
	if _, err := eng.Sweep(ctx, nil, []*setconsensus.Adversary{setconsensus.NewBuilder(3, 0).MustBuild()}); err == nil {
		t.Error("empty refs must error")
	}
	results, err := eng.Sweep(ctx, []string{"optmin"}, nil)
	if err != nil {
		t.Fatalf("empty advs must not error: %v", err)
	}
	if results == nil || len(results) != 0 {
		t.Errorf("empty advs: want empty non-nil slice, got %v", results)
	}
	if err := eng.SweepSourceStream(ctx, []string{"optmin"}, setconsensus.SliceSource(), func(*setconsensus.Result) {
		t.Error("empty advs must emit nothing")
	}); err != nil {
		t.Fatalf("empty advs stream: %v", err)
	}
}

func TestParseBackendCaseInsensitive(t *testing.T) {
	for name, want := range map[string]setconsensus.BackendKind{
		"oracle": setconsensus.Oracle, "Oracle": setconsensus.Oracle, "ORACLE": setconsensus.Oracle,
		" wire ": setconsensus.Wire, "GoRoutines": setconsensus.Goroutines,
	} {
		got, err := setconsensus.ParseBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := setconsensus.ParseBackend("quantum"); err == nil {
		t.Error("unknown backend must error")
	}
}

// TestEngineSweepStreamCancelAfterFirstEmit cancels the context after the
// very first emitted result; the stream must abort promptly and return
// ctx.Err().
func TestEngineSweepStreamCancelAfterFirstEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var advs []*setconsensus.Adversary
	for i := 0; i < 60; i++ {
		advs = append(advs, model.Random(rng, model.RandomParams{N: 5, T: 2, MaxValue: 1, MaxRound: 2}))
	}
	refs := []string{"optmin", "upmin"}
	eng := setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithParallelism(2),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err := eng.SweepSourceStream(ctx, refs, setconsensus.SliceSource(advs...), func(*setconsensus.Result) {
		emitted++
		if emitted == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if emitted >= len(refs)*len(advs) {
		t.Fatalf("cancellation did not stop the stream: %d results", emitted)
	}
}

func TestEngineSweepCancellationMidSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var advs []*setconsensus.Adversary
	for i := 0; i < 40; i++ {
		advs = append(advs, model.Random(rng, model.RandomParams{N: 5, T: 2, MaxValue: 1, MaxRound: 2}))
	}
	refs := []string{"optmin", "upmin", "floodmin"}
	eng := setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithParallelism(1),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err := eng.SweepSourceStream(ctx, refs, setconsensus.SliceSource(advs...), func(*setconsensus.Result) {
		emitted++
		if emitted == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if emitted >= len(refs)*len(advs) {
		t.Fatalf("cancellation did not stop the sweep: %d results", emitted)
	}
}

func TestEngineSweepParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var advs []*setconsensus.Adversary
	for i := 0; i < 12; i++ {
		advs = append(advs, model.Random(rng, model.RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3}))
	}
	refs := []string{"optmin", "upmin", "floodmin", "earlycount", "perround"}
	serial := setconsensus.New(setconsensus.WithCrashBound(3), setconsensus.WithDegree(2), setconsensus.WithParallelism(1))
	parallel := setconsensus.New(setconsensus.WithCrashBound(3), setconsensus.WithDegree(2), setconsensus.WithParallelism(8))
	ctx := context.Background()
	sres, err := serial.Sweep(ctx, refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := parallel.Sweep(ctx, refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sres {
		if sres[i].String() != pres[i].String() {
			t.Fatalf("result %d differs:\n  serial:   %s\n  parallel: %s", i, sres[i], pres[i])
		}
	}
}

func TestEngineErrorsNotPanics(t *testing.T) {
	adv := setconsensus.NewBuilder(4, 1).MustBuild()
	ctx := context.Background()

	if _, err := setconsensus.New(setconsensus.WithDegree(0)).Run(ctx, "optmin", adv); err == nil {
		t.Error("invalid degree must surface from Run")
	}
	if _, err := setconsensus.New(setconsensus.WithParallelism(0)).Sweep(ctx, []string{"optmin"}, []*setconsensus.Adversary{adv}); err == nil {
		t.Error("invalid parallelism must surface from Sweep")
	}
	if _, err := setconsensus.New().Run(ctx, "unknown-proto", adv); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := setconsensus.New().Run(ctx, "optmin", nil); err == nil {
		t.Error("nil adversary must error")
	}
	// Full-information-only protocols cannot run on compact backends.
	wireEng := setconsensus.New(setconsensus.WithBackend(setconsensus.Wire))
	if _, err := wireEng.Run(ctx, "floodmin", adv); err == nil {
		t.Error("floodmin on the wire backend must error")
	}
	if _, err := setconsensus.New().Sweep(ctx, nil, []*setconsensus.Adversary{adv}); err == nil {
		t.Error("sweep with no protocols must error")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := setconsensus.New().Run(canceled, "optmin", adv); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: %v", err)
	}
}

// TestEngineRejectsMalformedAdversaries feeds every backend adversaries
// a caller can build by hand but the model rules out — a crasher out of
// range either way, a crash in round 0, a delivery to a process out of
// range, a pattern over more processes than there are inputs — through
// Run, Sweep and SweepSource. Each must come back as the model's
// validation error, never as a panic recovered inside a backend.
func TestEngineRejectsMalformedAdversaries(t *testing.T) {
	ctx := context.Background()
	mismatched := setconsensus.NewBuilder(3, 0).MustBuild()
	mismatched.Pattern = &setconsensus.FailurePattern{N: 4}
	cases := []struct {
		name string
		adv  *setconsensus.Adversary
	}{
		{"crasher 9", setconsensus.NewBuilder(3, 0).Input(0, 1).CrashSilent(9, 1).MustBuild()},
		{"crasher -1", setconsensus.NewBuilder(3, 0).Input(0, 1).CrashSilent(-1, 1).MustBuild()},
		{"round 0", setconsensus.NewBuilder(3, 0).Input(0, 1).CrashSilent(0, 0).MustBuild()},
		{"delivery to 5", setconsensus.NewBuilder(3, 0).Input(0, 1).CrashSendingTo(1, 1, 0, 5).MustBuild()},
		{"pattern over 4", mismatched},
		{"negative input", setconsensus.NewBuilder(3, 0).Input(0, -1).MustBuild()},
		{"input 2^20", setconsensus.NewBuilder(3, 0).Input(0, 1<<20).MustBuild()},
	}
	for _, bk := range []setconsensus.BackendKind{setconsensus.Oracle, setconsensus.Goroutines, setconsensus.Wire} {
		eng := setconsensus.New(setconsensus.WithBackend(bk), setconsensus.WithDegree(1))
		for _, c := range cases {
			_, runErr := eng.Run(ctx, "optmin", c.adv)
			_, sweepErr := eng.Sweep(ctx, []string{"optmin"}, []*setconsensus.Adversary{c.adv})
			_, srcErr := eng.SweepSource(ctx, []string{"optmin"}, setconsensus.SliceSource(c.adv))
			for path, err := range map[string]error{"Run": runErr, "Sweep": sweepErr, "SweepSource": srcErr} {
				if err == nil || !strings.HasPrefix(err.Error(), "model: ") {
					t.Errorf("%s: %s %s: %v, want the model's validation error", bk, path, c.name, err)
				}
			}
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	adv, tb := collapseAdv(t, 2, 2)
	ctx := context.Background()
	for _, bk := range []setconsensus.BackendKind{setconsensus.Oracle, setconsensus.Wire} {
		eng := setconsensus.New(
			setconsensus.WithBackend(bk),
			setconsensus.WithCrashBound(tb),
			setconsensus.WithDegree(2),
		)
		res, err := eng.Run(ctx, "upmin", adv)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(setconsensus.Task{K: 2, Uniform: true}); err != nil {
			t.Fatalf("%s: %v", bk, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"protocol", "ref", "backend", "params", "adversary", "decisions", "maxCorrectTime"} {
			if _, ok := m[field]; !ok {
				t.Errorf("%s: JSON missing %q: %s", bk, field, blob)
			}
		}
		if bk == setconsensus.Wire {
			if _, ok := m["bits"]; !ok {
				t.Errorf("wire JSON missing bits: %s", blob)
			}
		} else {
			if _, ok := m["graphStats"]; !ok {
				t.Errorf("oracle JSON missing graphStats: %s", blob)
			}
			if _, ok := m["bits"]; ok {
				t.Error("oracle JSON must omit bits")
			}
		}
	}
}

func TestEngineParamsDefaultsValidate(t *testing.T) {
	def := setconsensus.DefaultEngineParams()
	if err := def.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	if def.Backend != setconsensus.Oracle || def.T != -1 || def.K != 1 {
		t.Errorf("unexpected defaults: %+v", def)
	}
	bad := []setconsensus.EngineParams{
		{Backend: 99, T: -1, K: 1, Parallelism: 1},
		{T: -3, K: 1, Parallelism: 1},
		{T: -1, K: 0, Parallelism: 1},
		{T: -1, K: 1, Parallelism: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v must not validate", i, p)
		}
	}
}
