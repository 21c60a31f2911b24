package setconsensus_test

import (
	"context"
	"iter"
	"math/rand"
	"testing"

	setconsensus "setconsensus"
)

// requireSummariesEqual asserts two summaries agree on every count the
// aggregation tracks: runs, undecided, violations, time extremes and
// sums, full decision-time histograms, and wire-bit totals.
func requireSummariesEqual(t *testing.T, got, want *setconsensus.Summary, label string) {
	t.Helper()
	if got.Runs() != want.Runs() {
		t.Fatalf("%s: %d runs, want %d", label, got.Runs(), want.Runs())
	}
	if len(got.Protocols) != len(want.Protocols) {
		t.Fatalf("%s: %d protocol rows, want %d", label, len(got.Protocols), len(want.Protocols))
	}
	for i, p := range got.Protocols {
		w := want.Protocols[i]
		if p.Ref != w.Ref || p.Runs != w.Runs || p.Undecided != w.Undecided ||
			p.Violations != w.Violations || p.MaxTime != w.MaxTime || p.SumTime != w.SumTime ||
			p.TotalBits != w.TotalBits || p.MaxPair != w.MaxPair {
			t.Errorf("%s: protocol %s diverged: got %+v, want %+v", label, p.Ref, p, w)
		}
		if len(p.TimeHist) != len(w.TimeHist) {
			t.Errorf("%s: protocol %s histogram sizes %d vs %d", label, p.Ref, len(p.TimeHist), len(w.TimeHist))
		}
		for tm, n := range w.TimeHist {
			if p.TimeHist[tm] != n {
				t.Errorf("%s: protocol %s hist[%d] = %d, want %d", label, p.Ref, tm, p.TimeHist[tm], n)
			}
		}
	}
}

// sequentialSummary folds src through the single-aggregator path: one
// shared Aggregator fed run by run from the streaming sweep — the
// pre-sharding semantics the sharded path must reproduce exactly. The
// streaming sweep builds a fresh knowledge.New graph per adversary, so
// this is also the full-build oracle for the Builder's revives and
// patches.
func sequentialSummary(t *testing.T, eng *setconsensus.Engine, refs []string, src setconsensus.Source) *setconsensus.Summary {
	t.Helper()
	a, err := eng.NewAggregator(src.Label(), refs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SweepSourceStream(context.Background(), refs, src, a.Add); err != nil {
		t.Fatal(err)
	}
	return a.Summary()
}

// TestShardedSummaryEquivalence is the sharded-aggregation acceptance
// test: over randomized seeded workloads — exhaustive spaces and random
// sources — the sharded-and-merged SweepSource summary must be
// identical (histograms, violation counts, bit totals) to the
// sequential single-aggregator fold, at parallelism 1 and at a
// parallelism that forces multiple shards. Run under -race this also
// pins the merge-once synchronization contract.
func TestShardedSummaryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	refs := []string{"optmin", "upmin", "floodmin"}
	for trial := 0; trial < 4; trial++ {
		space := setconsensus.Space{
			N:        3,
			T:        1 + rng.Intn(2),
			MaxRound: 1 + rng.Intn(2),
			Values:   []int{0, 1},
		}
		spaceSrc, err := setconsensus.SpaceSource(space)
		if err != nil {
			t.Fatal(err)
		}
		randSrc, err := setconsensus.RandomSource(rng.Int63(), 64+rng.Intn(64), setconsensus.RandomParams{
			N: 4, T: 2, MaxValue: 2, MaxRound: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []setconsensus.Source{spaceSrc, randSrc} {
			sequential := sequentialSummary(t, setconsensus.New(
				setconsensus.WithCrashBound(2),
				setconsensus.WithParallelism(1),
			), refs, src)
			for _, workers := range []int{1, 4} {
				eng := setconsensus.New(
					setconsensus.WithCrashBound(2),
					setconsensus.WithParallelism(workers),
				)
				sharded, err := eng.SweepSource(context.Background(), refs, src)
				if err != nil {
					t.Fatal(err)
				}
				requireSummariesEqual(t, sharded, sequential, src.Label())
			}
		}
	}
}

// TestShardedWireBitsEquivalence repeats the comparison on the wire
// backend, whose runs carry bit accounting through the pooled path.
func TestShardedWireBitsEquivalence(t *testing.T) {
	refs := []string{"optmin", "upmin"}
	src, err := setconsensus.RandomSource(7, 48, setconsensus.RandomParams{N: 4, T: 2, MaxValue: 1, MaxRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *setconsensus.Engine {
		return setconsensus.New(
			setconsensus.WithBackend(setconsensus.Wire),
			setconsensus.WithCrashBound(2),
			setconsensus.WithDegree(2),
			setconsensus.WithParallelism(workers),
		)
	}
	sequential := sequentialSummary(t, mk(1), refs, src)
	sharded, err := mk(4).SweepSource(context.Background(), refs, src)
	if err != nil {
		t.Fatal(err)
	}
	requireSummariesEqual(t, sharded, sequential, src.Label())
	if sharded.Protocols[0].TotalBits == 0 {
		t.Fatal("wire sweep recorded no bits through the pooled path")
	}
}

// lyingSource claims a known count that disagrees with what it yields —
// the degenerate Source contract violation the sweep must survive.
type lyingSource struct {
	claimed int
	advs    []*setconsensus.Adversary
}

func (s *lyingSource) Label() string      { return "liar" }
func (s *lyingSource) Count() (int, bool) { return s.claimed, true }
func (s *lyingSource) Seq() iter.Seq[*setconsensus.Adversary] {
	return func(yield func(*setconsensus.Adversary) bool) {
		for _, a := range s.advs {
			if !yield(a) {
				return
			}
		}
	}
}

// TestSweepSourceLyingCount pins the degenerate-count behavior: a source
// claiming count 0 (or a negative count) while yielding adversaries
// must neither deadlock nor drop runs — every yielded adversary is
// swept. The old early-return treated "known 0" as empty and silently
// discarded the stream.
func TestSweepSourceLyingCount(t *testing.T) {
	advs := []*setconsensus.Adversary{
		setconsensus.NewBuilder(3, 0).MustBuild(),
		setconsensus.NewBuilder(3, 1).MustBuild(),
		setconsensus.NewBuilder(3, 0).CrashSilent(1, 1).MustBuild(),
	}
	for _, claimed := range []int{0, -5, 1} {
		eng := setconsensus.New(setconsensus.WithParallelism(2))
		sum, err := eng.SweepSource(context.Background(), []string{"optmin"}, &lyingSource{claimed: claimed, advs: advs})
		if err != nil {
			t.Fatalf("claimed=%d: %v", claimed, err)
		}
		if sum.Adversaries() != len(advs) {
			t.Fatalf("claimed=%d: swept %d adversaries, want %d", claimed, sum.Adversaries(), len(advs))
		}
	}
}
