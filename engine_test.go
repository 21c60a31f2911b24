package setconsensus_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	setconsensus "setconsensus"
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

func TestEngineSweepSharesOneGraphPerAdversary(t *testing.T) {
	adv1, tb := collapseAdv(t, 2, 3)
	adv2 := setconsensus.NewBuilder(adv1.N(), 1).Input(0, 0).MustBuild()
	refs := []string{"optmin", "upmin", "floodmin", "u-earlycount"}
	eng := setconsensus.New(setconsensus.WithCrashBound(tb), setconsensus.WithDegree(2))
	results, err := eng.Sweep(context.Background(), refs, []*setconsensus.Adversary{adv1, adv2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(refs)*2 {
		t.Fatalf("got %d results", len(results))
	}
	// Deterministic order: adversary-major, protocol-minor.
	for a := 0; a < 2; a++ {
		for p, ref := range refs {
			if got := results[a*len(refs)+p].Ref; got != ref {
				t.Fatalf("result[%d]: ref %q, want %q", a*len(refs)+p, got, ref)
			}
		}
	}
	// All protocols of one adversary consulted the identical graph.
	g1 := results[0].KnowledgeGraph()
	if g1 == nil {
		t.Fatal("oracle result without knowledge graph")
	}
	for p := 1; p < len(refs); p++ {
		if results[p].KnowledgeGraph() != g1 {
			t.Fatalf("protocol %s did not share adversary 1's graph", refs[p])
		}
	}
	g2 := results[len(refs)].KnowledgeGraph()
	if g2 == g1 {
		t.Fatal("distinct adversaries must not share a graph")
	}
	for p := 1; p < len(refs); p++ {
		if results[len(refs)+p].KnowledgeGraph() != g2 {
			t.Fatalf("protocol %s did not share adversary 2's graph", refs[p])
		}
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
		{T: -1, K: 1, Horizon: -1, Parallelism: 1},
		{Backend: setconsensus.Wire, T: -1, K: 1, Horizon: 2, Parallelism: 1},
		{T: -1, K: 1, Parallelism: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v must not validate", i, p)
		}
	}
}
