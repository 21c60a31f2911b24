package unbeat

import (
	"context"
	"reflect"
	"testing"

	"setconsensus/internal/baseline"
	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

func TestSearchOptminUnbeatenK1(t *testing.T) {
	// Binary consensus over n=3, t=2, rounds ≤ 3: no rule deviating from
	// Opt0 at up to two views survives the task — Theorem 1 on the
	// bounded model.
	p := SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1}},
		K:     1, T: 2, Width: 2,
	}
	base := core.MustOptmin(core.Params{N: 3, T: 2, K: 1})
	rep, err := Search(context.Background(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beaten {
		t.Fatalf("Optmin[1] beaten: %s", rep.Witness)
	}
	if rep.Views == 0 || rep.Candidates == 0 {
		t.Fatalf("degenerate search: %+v", rep)
	}
	t.Logf("runs=%d deviation-points=%d candidates=%d pairs(pruned=%d tested=%d)",
		rep.Runs, rep.Views, rep.Candidates, rep.PairsPruned, rep.PairsTested)
}

func TestSearchOptminUnbeatenK2(t *testing.T) {
	// 2-set consensus over n=4, t=2, crash rounds ≤ 2, width 1.
	p := SearchParams{
		Space: enum.Space{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1, 2}},
		K:     2, T: 2, Width: 1,
	}
	base := core.MustOptmin(core.Params{N: 4, T: 2, K: 2})
	rep, err := Search(context.Background(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beaten {
		t.Fatalf("Optmin[2] beaten: %s", rep.Witness)
	}
	t.Logf("runs=%d deviation-points=%d candidates=%d", rep.Runs, rep.Views, rep.Candidates)
}

func TestSearchUPminConjectureProbe(t *testing.T) {
	// Conjecture 1 probe: u-Pmin[1] (uniform consensus) — the search
	// must find no width-2 beat on the bounded model either.
	p := SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Uniform: true, Width: 2,
	}
	base := core.MustUPmin(core.Params{N: 3, T: 2, K: 1})
	rep, err := Search(context.Background(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beaten {
		t.Fatalf("u-Pmin[1] beaten on the bounded model — Conjecture 1 witness? %s", rep.Witness)
	}
	t.Logf("runs=%d deviation-points=%d candidates=%d pairs tested=%d",
		rep.Runs, rep.Views, rep.Candidates, rep.PairsTested)
}

func TestSearchFindsBeatOfBeatableProtocol(t *testing.T) {
	// Sanity: FloodMin[1] (always waits until ⌊t/k⌋+1) IS beatable, and
	// the search must find a beating deviation with a typed witness.
	p := SearchParams{
		Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}},
		K:     1, T: 1, Width: 1,
	}
	base := baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1})
	rep, err := Search(context.Background(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Beaten {
		t.Fatal("search failed to beat FloodMin — the search itself is broken")
	}
	w := rep.Witness
	if w == nil || len(w.Deviations) != 1 {
		t.Fatalf("width-1 beat must carry one typed deviation, got %+v", w)
	}
	if w.AdvFingerprint == "" || w.Adversary == "" {
		t.Fatalf("witness must identify the strict-win adversary, got %+v", w)
	}
	t.Logf("beat: %s", w)
}

func TestSearchWidthValidation(t *testing.T) {
	base := core.MustOptmin(core.Params{N: 3, T: 1, K: 1})
	_, err := Search(context.Background(), base, SearchParams{
		Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0}},
		K:     1, T: 1, Width: 3,
	})
	if err == nil {
		t.Error("width 3 must be rejected")
	}
	var _ sim.Protocol = base
}

func TestSearchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := core.MustOptmin(core.Params{N: 3, T: 2, K: 1})
	_, err := Search(ctx, base, SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Width: 2,
	})
	if err != context.Canceled {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
}

// compileFor builds the compiled space of a search configuration the way
// Search does, so tests can drive the test stage at several parallelism
// levels over one compilation.
func compileFor(t *testing.T, base sim.Protocol, p SearchParams) *Compiled {
	t.Helper()
	c, err := NewCompiler(p)
	if err != nil {
		t.Fatal(err)
	}
	builder := knowledge.NewBuilder()
	var sc sim.Scratch
	var res sim.Result
	err = p.Space.ForEach(func(adv *model.Adversary) bool {
		g := builder.Build(adv, c.Horizon())
		sim.RunWithGraphInto(base, g, &sc, &res)
		c.Add(adv, g, res.Decisions)
		g.Release()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestCompilerKeepsNothingOfPreviousAdversary pins that a Compiler reads
// nothing of the adversary an earlier Add passed in: the engine carves
// each window's adversaries from one reused arena, so the previous
// adversary is overwritten in place before the next Add. Here each
// adversary's inputs are overwritten with the next one's right after its
// Add — the overwrite that makes a diff against the previous adversary
// read "unchanged" — and the compile must still equal one over fresh
// adversaries.
func TestCompilerKeepsNothingOfPreviousAdversary(t *testing.T) {
	for _, c := range referenceCases() {
		t.Run(c.name, func(t *testing.T) {
			want := compileFor(t, c.base, c.p)
			advs, err := c.p.Space.Adversaries()
			if err != nil {
				t.Fatal(err)
			}
			comp, err := NewCompiler(c.p)
			if err != nil {
				t.Fatal(err)
			}
			var sc sim.Scratch
			var res sim.Result
			for i, adv := range advs {
				g := knowledge.New(adv, comp.Horizon())
				sim.RunWithGraphInto(c.base, g, &sc, &res)
				comp.Add(adv, g, res.Decisions)
				if i+1 < len(advs) {
					copy(adv.Inputs, advs[i+1].Inputs)
				}
			}
			got, err := Merge(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("compile over overwritten adversaries diverges from one over fresh adversaries")
			}
		})
	}
}

// TestSearchParallelEquivalence pins the determinism contract: the
// report of a parallel search is identical — field for field, witness
// included — to the sequential one, on both unbeaten and beaten spaces.
// Run under -race this also exercises the sharded accumulators.
func TestSearchParallelEquivalence(t *testing.T) {
	cases := []struct {
		name string
		base sim.Protocol
		p    SearchParams
	}{
		{"optmin-unbeaten", core.MustOptmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1}}, K: 1, T: 2, Width: 2}},
		{"upmin-unbeaten", core.MustUPmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}, K: 1, T: 2, Uniform: true, Width: 2}},
		{"floodmin-beaten-w1", baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 1}},
		{"floodmin-beaten-w2", baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 2}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := compileFor(t, c.base, c.p)
			seq, err := cs.Search(ctx, SearchOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8} {
				got, err := cs.Search(ctx, SearchOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("parallelism %d report diverges:\nseq: %+v (witness %s)\npar: %+v (witness %s)",
						par, seq, seq.Witness, got, got.Witness)
				}
			}
		})
	}
}

// searchCase is one search configuration of the equivalence tests.
type searchCase struct {
	name string
	base sim.Protocol
	p    SearchParams
}

// referenceCases are the configurations the pipeline is pinned against
// the reference search on: unbeaten and beaten, width 1 and 2, k 1 and 2.
func referenceCases() []searchCase {
	return []searchCase{
		{"optmin-w2", core.MustOptmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1}}, K: 1, T: 2, Width: 2}},
		{"upmin-w2", core.MustUPmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}, K: 1, T: 2, Uniform: true, Width: 2}},
		{"optmin-k2-w1", core.MustOptmin(core.Params{N: 4, T: 2, K: 2}),
			SearchParams{Space: enum.Space{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1, 2}}, K: 2, T: 2, Width: 1}},
		{"floodmin-beaten", baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 2}},
	}
}

// TestSearchMatchesReference pins the staged pipeline node for node
// against the retained pre-pipeline implementation (reference_test.go):
// same verdict, same counters, same witness, on unbeaten and beaten
// spaces.
func TestSearchMatchesReference(t *testing.T) {
	for _, c := range referenceCases() {
		t.Run(c.name, func(t *testing.T) {
			want, err := referenceSearch(c.base, c.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				cs := compileFor(t, c.base, c.p)
				got, err := cs.Search(context.Background(), SearchOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("parallelism %d diverges from reference:\nref: %+v\ngot: %+v", par, want, got)
				}
			}
		})
	}
}

// TestSearchProgressSnapshots checks the stage snapshots the search
// delivers to its feed, at every add and from two workers: stages arrive
// in pipeline order, each opens at 0, Done never decreases within one,
// and each closes at its Total.
func TestSearchProgressSnapshots(t *testing.T) {
	base := core.MustOptmin(core.Params{N: 3, T: 2, K: 1})
	p := SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Width: 2,
	}
	cs := compileFor(t, base, p)
	var (
		stages []string
		last   Progress
	)
	closed := func() {
		if len(stages) > 0 && last.Done != last.Total {
			t.Errorf("stage %s closed at %d of %d", last.Stage, last.Done, last.Total)
		}
	}
	rep, err := cs.Search(context.Background(), SearchOptions{
		Parallelism: 2,
		Feed: govern.NewFeed(0, func(pr Progress) {
			if len(stages) == 0 || stages[len(stages)-1] != pr.Stage {
				closed()
				stages = append(stages, pr.Stage)
				if pr.Done != 0 {
					t.Errorf("stage %s opened at %d", pr.Stage, pr.Done)
				}
			} else if pr.Done < last.Done {
				t.Fatalf("stage %s: done went backwards (%d after %d)", pr.Stage, pr.Done, last.Done)
			}
			last = pr
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	closed()
	if rep.Beaten {
		t.Fatalf("Optmin[1] beaten: %s", rep.Witness)
	}
	if want := []string{"width-1", "width-2"}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
}
