package knowledge

import (
	"math/rand"
	"testing"
)

// TestFullBuildsNeverFillTouchTable pins the lazy touched-views table: a
// stream of full builds that never patches — fresh failure patterns,
// released in turn, as a random sweep builds them — never computes the
// table, so its slabs stay unallocated.
func TestFullBuildsNeverFillTouchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	b := NewBuilder()
	for i := 0; i < 200; i++ {
		b.Build(randomAdversary(rng, 6, 3, 3, 2), 3).Release()
	}
	if built, _, _ := b.TakeCounts(); built != 200 {
		t.Fatalf("%d full builds of 200 fresh patterns", built)
	}
	if b.sc.touchBuilt || cap(b.sc.touchOff) != 0 || cap(b.sc.touchNodes) != 0 {
		t.Fatalf("full builds filled the touched-views table (built %v, %d offsets, %d nodes)",
			b.sc.touchBuilt, cap(b.sc.touchOff), cap(b.sc.touchNodes))
	}
}

// TestPatchBuildsItsOwnTouchTable interleaves full builds over two
// failure patterns with single-input patches. Each patch must compute
// the table for its own pattern on its first use after a full build —
// never reuse the table another pattern's patch left behind — and every
// patched graph must equal the one New builds.
func TestPatchBuildsItsOwnTouchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := NewBuilder()
	for trial := 0; trial < 30; trial++ {
		advA := randomAdversary(rng, 5, 3, 3, 3)
		advB := randomAdversary(rng, 5, 3, 3, 3)
		// A full build of A, then a patch of A: the table is built for A.
		b.Build(advA, 4).Release()
		a1 := flip(advA, trial%5, advA.Inputs[trial%5]^1)
		g := b.Build(a1, 4)
		checkSameGraph(t, g, New(a1, 4))
		g.Release()
		if !b.sc.touchBuilt {
			t.Fatal("a patch ran without a touched-views table")
		}
		// Full builds of B and of A again, interleaved, then a patch of
		// A: B's full build made the table stale, and A's must not pass
		// the table of A's earlier patch off as its own.
		gB := b.Build(advB, 4)
		gA := b.Build(advA, 4)
		if b.sc.touchBuilt {
			t.Fatal("a full build left the previous pattern's table marked built")
		}
		gB.Release()
		gA.Release()
		a2 := flip(advA, (trial+1)%5, advA.Inputs[(trial+1)%5]^1)
		b.TakeCounts()
		g = b.Build(a2, 4)
		if _, _, patched := b.TakeCounts(); patched != 1 {
			t.Fatalf("trial %d: a single flip after A's full build did not patch", trial)
		}
		checkSameGraph(t, g, New(a2, 4))
		g.Release()
		// And B patched after A's: B's own table.
		b.Build(advB, 4).Release()
		b2 := flip(advB, trial%5, advB.Inputs[trial%5]^1)
		g = b.Build(b2, 4)
		checkSameGraph(t, g, New(b2, 4))
		g.Release()
	}
}

// TestForgetDropsPatternPointers checks that Forget leaves nothing of
// the last pattern in the build scratch: no delivery set in delOf or in
// any per-round crasher list, and no view of the last graph.
func TestForgetDropsPatternPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	b := NewBuilder()
	for i := 0; i < 20; i++ {
		b.Build(randomAdversary(rng, 6, 4, 3, 2), 4).Release()
	}
	held := false
	for _, d := range b.sc.delOf[:cap(b.sc.delOf)] {
		held = held || d != nil
	}
	if !held {
		t.Fatal("the probe built no crash: nothing to forget")
	}
	b.Forget()
	for p, d := range b.sc.delOf[:cap(b.sc.delOf)] {
		if d != nil {
			t.Fatalf("delOf[%d] still points at a delivery set", p)
		}
	}
	for rho, cs := range b.sc.crash[:cap(b.sc.crash)] {
		for j, c := range cs[:cap(cs)] {
			if c.del != nil {
				t.Fatalf("crash[%d][%d] still points at a delivery set", rho, j)
			}
		}
	}
	if b.sc.seen.Words() != nil {
		t.Fatal("the scratch still wraps the last graph's arena")
	}
}
