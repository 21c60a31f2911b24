package unbeat

import (
	"context"
	"testing"

	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/model"
)

// The width-2 test stage reuses one per-worker testScratch — the
// candidate pair and the decided-value set — instead of allocating a
// deviation map per pair and a bitset per (pair, run) as the
// pre-pipeline search did. These pins keep that contract honest, in the
// style of the sim/check scratch pins.

func width2Compiled(t *testing.T) *Compiled {
	t.Helper()
	base := core.MustOptmin(core.Params{N: 3, T: 2, K: 1})
	return compileFor(t, base, SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Width: 2,
	})
}

// TestViolatesScratchAllocFree pins the innermost operation: simulating
// one pair candidate against one compiled run allocates nothing once
// the worker's scratch is warm.
func TestViolatesScratchAllocFree(t *testing.T) {
	cs := width2Compiled(t)
	if len(cs.devs) < 2 || cs.table.runs() == 0 {
		t.Fatalf("degenerate compiled space: %d devs, %d runs", len(cs.devs), cs.table.runs())
	}
	sc := &testScratch{}
	sc.devs[0], sc.devs[1] = cs.devs[0], cs.devs[1]
	cs.violates(sc.devs[:2], 0, sc) // warm the decided set
	allocs := testing.AllocsPerRun(100, func() {
		for r := range cs.table.runs() {
			cs.violates(sc.devs[:2], r, sc)
		}
	})
	if allocs != 0 {
		t.Fatalf("violates allocated %.1f objects per full-run pass, want 0", allocs)
	}
}

// TestTestCandidateScratchAllocFree pins the per-pair path end to end:
// testing a full pair candidate over every run is allocation-free.
func TestTestCandidateScratchAllocFree(t *testing.T) {
	cs := width2Compiled(t)
	sc := &testScratch{}
	// Pick a distinct-view pair, as the width-2 stage does.
	var a, b Deviation
	found := false
	for ai := 0; ai < len(cs.devs) && !found; ai++ {
		for bi := ai + 1; bi < len(cs.devs); bi++ {
			if cs.devs[ai].View != cs.devs[bi].View {
				a, b, found = cs.devs[ai], cs.devs[bi], true
				break
			}
		}
	}
	if !found {
		t.Skip("no distinct-view pair in this space")
	}
	sc.devs[0], sc.devs[1] = a, b
	relevant := sc.relevant.CopyFrom(&cs.occurs[a.View]).UnionWith(&cs.occurs[b.View])
	cs.testCandidate(sc.devs[:2], relevant, sc) // warm
	allocs := testing.AllocsPerRun(100, func() {
		sc.devs[0], sc.devs[1] = a, b
		relevant := sc.relevant.CopyFrom(&cs.occurs[a.View]).UnionWith(&cs.occurs[b.View])
		cs.testCandidate(sc.devs[:2], relevant, sc)
	})
	if allocs != 0 {
		t.Fatalf("testCandidate allocated %.1f objects per pair, want 0", allocs)
	}
}

// TestSearchWidth2AllocationBounded pins the whole width-2 stage from
// above: a full search allocates proportionally to runs and views (the
// compile outputs and stage bookkeeping), never to pairs × runs — the
// regime the per-pair map and per-run bitset of the old search lived in.
func TestSearchWidth2AllocationBounded(t *testing.T) {
	// The uniform probe is the configuration whose pairs survive the
	// locality prune, so the bound covers the tested-pair path too.
	base := core.MustUPmin(core.Params{N: 3, T: 2, K: 1})
	p := SearchParams{
		Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Uniform: true, Width: 2,
	}
	cs := compileFor(t, base, p)
	rep, err := cs.Search(context.Background(), SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairWork := rep.PairsTested * rep.Runs
	if pairWork == 0 {
		t.Fatalf("degenerate space: %+v", rep)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cs.Search(context.Background(), SearchOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	// Stage bookkeeping (violation sets, occurs table, report) scales
	// with views + runs; the old code paid ≥ one allocation per tested
	// candidate plus one per (candidate, run).
	bound := float64(4*(rep.Views+len(cs.viewPre)) + rep.Runs/4 + 64)
	if allocs > bound {
		t.Fatalf("width-2 search allocated %.0f objects (bound %.0f) for %d pair-runs — per-pair scratch regressed",
			allocs, bound, pairWork)
	}
	var _ = model.Value(0)
}
