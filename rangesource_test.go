package setconsensus_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	setconsensus "setconsensus"
)

// newSweepEngine mirrors the workload-sweep engine configuration (crash
// bound from each adversary's own pattern).
func newSweepEngine(t *testing.T) *setconsensus.Engine {
	t.Helper()
	p := setconsensus.DefaultEngineParams()
	p.T = setconsensus.PatternCrashBound
	eng, err := setconsensus.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRangePartitionEquivalence is the distributed-sweep correctness
// backbone: sweeping any partition of a workload's offset space through
// RangeSource and merging the partial Summaries must reproduce the
// monolithic SweepSource result byte-for-byte — including partitions
// with empty and singleton ranges, merged in shuffled order. This is
// what entitles the coordinator to shard blindly.
func TestRangePartitionEquivalence(t *testing.T) {
	const workload = "space:n=3,t=1,r=2,v=0..1"
	refs := []string{"optmin", "upmin", "floodmin"}
	src, err := setconsensus.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	eng := newSweepEngine(t)
	ctx := context.Background()

	mono, err := eng.SweepSource(ctx, refs, src)
	if err != nil {
		t.Fatal(err)
	}
	total := mono.Adversaries()
	if total < 4 {
		t.Fatalf("space too small to partition meaningfully: %d adversaries", total)
	}
	wantJSON := mustJSON(t, mono)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		// Random cut points, plus forced degenerate pieces: a singleton at a
		// random offset, an empty range inside the space, and a range
		// entirely past the end.
		cuts := map[int]bool{0: true, total: true}
		for n := rng.Intn(6) + 2; n > 0; n-- {
			cuts[rng.Intn(total)] = true
		}
		single := rng.Intn(total - 1)
		cuts[single], cuts[single+1] = true, true
		offs := make([]int, 0, len(cuts))
		for o := range cuts {
			offs = append(offs, o)
		}
		for i := range offs { // insertion sort; tiny
			for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
				offs[j], offs[j-1] = offs[j-1], offs[j]
			}
		}
		type window struct{ off, lim int }
		parts := make([]window, 0, len(offs)+1)
		for i := 0; i+1 < len(offs); i++ {
			parts = append(parts, window{offs[i], offs[i+1] - offs[i]})
		}
		parts = append(parts,
			window{rng.Intn(total), 0}, // empty window inside the space
			window{total + 3, 5},       // wholly past the end
		)
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

		agg, err := eng.NewAggregator(src.Label(), refs)
		if err != nil {
			t.Fatal(err)
		}
		merged := agg.Summary() // empty, mergeable base with the monolithic label
		for _, w := range parts {
			part, err := newSweepEngine(t).SweepSource(ctx, refs, setconsensus.RangeSource(src, w.off, w.lim))
			if err != nil {
				t.Fatalf("trial %d, window [%d,%d): %v", trial, w.off, w.off+w.lim, err)
			}
			if err := merged.Merge(part); err != nil {
				t.Fatalf("trial %d, window [%d,%d): merge: %v", trial, w.off, w.off+w.lim, err)
			}
		}
		if got := mustJSON(t, merged); got != wantJSON {
			t.Errorf("trial %d: partition-merged summary differs from monolithic:\n got %s\nwant %s",
				trial, got, wantJSON)
		}
	}
}

// TestRangeSourceWindowing pins the RangeSource contract the partitions
// rely on: clamped negatives, known-count clamping, and the exact window
// count admission reads, over a space as over any counted stream.
func TestRangeSourceWindowing(t *testing.T) {
	src, err := setconsensus.ParseWorkload("random:n=3,t=1,count=10,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off, lim, want int
	}{
		{0, 10, 10}, {0, 4, 4}, {7, 10, 3}, {10, 5, 0}, {15, 5, 0}, {-3, -1, 0},
	} {
		r := setconsensus.RangeSource(src, tc.off, tc.lim)
		n, known := r.Count()
		if !known || n != tc.want {
			t.Errorf("RangeSource(%d, %d).Count() = %d, %v; want %d, true", tc.off, tc.lim, n, known, tc.want)
		}
		got := 0
		for range r.Seq() {
			got++
		}
		if got != tc.want {
			t.Errorf("RangeSource(%d, %d) yielded %d adversaries, want %d", tc.off, tc.lim, got, tc.want)
		}
	}
	space, err := setconsensus.ParseWorkload("space:n=3,t=1,r=2,v=0..1")
	if err != nil {
		t.Fatal(err)
	}
	total, known := space.Count()
	if !known || total != 200 {
		t.Fatalf("space Count() = %d, %v; want 200, true", total, known)
	}
	for _, tc := range []struct{ off, lim, want int }{
		{0, 5, 5}, {196, 10, 4}, {200, 1, 0}, {1 << 40, 1 << 40, 0},
	} {
		if n, known := setconsensus.RangeSource(space, tc.off, tc.lim).Count(); !known || n != tc.want {
			t.Errorf("space RangeSource(%d, %d).Count() = %d, %v; want %d, true", tc.off, tc.lim, n, known, tc.want)
		}
	}
}
