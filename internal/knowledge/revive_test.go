package knowledge

import (
	"math/rand"
	"testing"

	"setconsensus/internal/model"
)

// TestBuilderReviveEquivalence pins the revive fast path: rebuilding
// through one Builder over the same failure pattern with varying input
// vectors — the exact accesses of an aggregating sweep walking one
// canonical pattern block — must produce graphs indistinguishable from
// the naive reference, query for query. A stale value table or a
// pattern-derived table corrupted by the value-only rebuild diverges
// here.
func TestBuilderReviveEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	for trial := 0; trial < 12; trial++ {
		base := randomAdversary(rng, 5, 3, 3, 3)
		horizon := 4
		// Walk several input vectors over the shared pattern, releasing
		// between builds as the sweep path does. The first build is full,
		// the rest revive.
		for vec := 0; vec < 5; vec++ {
			inputs := make([]model.Value, base.N())
			for i := range inputs {
				inputs[i] = rng.Intn(4)
			}
			adv := &model.Adversary{Inputs: inputs, Pattern: base.Pattern}
			g := b.Build(adv, horizon)
			checkEquivalent(t, g, newReference(adv, horizon))
			g.Release()
		}
	}
}

// TestBuilderReviveRejectsMismatch asserts the revive path refuses
// anything but the same pattern at the same horizon: a different
// pattern, a different horizon, or wider inputs must fall back to a
// full (correct) build rather than reuse stale tables.
func TestBuilderReviveRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	a1 := randomAdversary(rng, 4, 2, 2, 2)
	b.Build(a1, 3).Release()

	// Different horizon over the same pattern.
	g := b.Build(a1, 4)
	checkEquivalent(t, g, newReference(a1, 4))
	g.Release()

	// Different pattern entirely.
	a2 := randomAdversary(rng, 4, 2, 2, 2)
	for a2.Pattern.Fingerprint() == a1.Pattern.Fingerprint() {
		a2 = randomAdversary(rng, 4, 2, 2, 2)
	}
	g = b.Build(a2, 4)
	checkEquivalent(t, g, newReference(a2, 4))
	g.Release()

	// Same pattern, inputs too wide for the reused value layout (value
	// ≥ 64 needs a second value word).
	wide := &model.Adversary{Inputs: []model.Value{70, 0, 1, 2}, Pattern: a2.Pattern}
	g = b.Build(wide, 4)
	checkEquivalent(t, g, newReference(wide, 4))
	g.Release()
}

// TestBuilderReviveSurvivesInterleavedBuilds pins the stale-scratch
// guard: multiple graphs from one Builder may be live at once, and a
// full build over adversary B between A's Release and A's same-pattern
// rebuild overwrites the build scratch that fillValues would read. The
// revive path must notice the scratch no longer describes A's pattern
// and fall back to a full (correct) build — before the guard, this
// sequence silently produced wrong value tables.
func TestBuilderReviveSurvivesInterleavedBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBuilder()
	advA := randomAdversary(rng, 5, 3, 3, 3)
	// A deliberately different shape (fewer processes, other pattern) so
	// a stale-scratch read would be loudly wrong, not coincidentally right.
	advB := randomAdversary(rng, 3, 1, 2, 2)

	gA := b.Build(advA, 4)
	gB := b.Build(advB, 2) // overwrites the scratch while gA is live
	gA.Release()
	advA2 := &model.Adversary{Inputs: []model.Value{3, 1, 0, 2, 1}, Pattern: advA.Pattern}
	gA2 := b.Build(advA2, 4) // same pattern as the spare, but scratch is B's
	checkEquivalent(t, gA2, newReference(advA2, 4))
	gA2.Release()
	gB.Release()

	// Same-pattern different-horizon interleaving: the spare graph keeps
	// horizon 4 but the scratch now describes horizon 2 of the same
	// pattern; reviving the horizon-4 spare off the horizon-2 scratch
	// would read misindexed layer-0 offsets.
	gH4 := b.Build(advA, 4)
	gH2 := b.Build(&model.Adversary{Inputs: advA.Inputs, Pattern: advA.Pattern}, 2)
	gH4.Release()
	gH4b := b.Build(advA2, 4)
	checkEquivalent(t, gH4b, newReference(advA2, 4))
	gH4b.Release()
	gH2.Release()
}

// TestBuilderReviveAllocationFree asserts the steady state of a pattern
// block costs no allocations at all: after the full build, each
// release-and-rebuild over the same pattern reuses graph, storage, and
// scratch verbatim.
func TestBuilderReviveAllocationFree(t *testing.T) {
	adv, err := model.Collapse(model.CollapseParams{K: 2, R: 3, ExtraCorrect: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	b.Build(adv, 5).Release()
	avg := testing.AllocsPerRun(50, func() {
		b.Build(adv, 5).Release()
	})
	if avg != 0 {
		t.Fatalf("revive build allocated %.1f objects per run, want 0", avg)
	}
}

// TestBuilderKeepsNothingOfReleasedAdversary pins that a Builder reads
// nothing of a released graph's adversary: a sweep worker carves each
// window's adversaries from one reused arena, so the adversary of the
// graph it released last is overwritten in place before its next Build.
// Whatever the released adversary's inputs then read — the next
// adversary's own, or anything else — the next Build over the same
// pattern (a patch, a revive, or the identical-inputs reuse) must equal
// knowledge.New's graph.
func TestBuilderKeepsNothingOfReleasedAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := NewBuilder()
	for trial := 0; trial < 40; trial++ {
		prev := randomAdversary(rng, 5, 3, 3, 3)
		b.Build(prev, 4).Release()
		next := flip(prev, rng.Intn(prev.N()), rng.Intn(4))
		if trial%2 == 1 {
			for i := range next.Inputs {
				next.Inputs[i] = rng.Intn(4)
			}
		}
		overwrite := next.Inputs
		if trial%4 >= 2 {
			overwrite = []model.Value{3, 0, 3, 0, 3}
		}
		copy(prev.Inputs, overwrite)
		g := b.Build(next, 4)
		checkSameGraph(t, g, New(next, 4))
		g.Release()
	}
}

// checkSameGraph asserts two graphs of one adversary answer every query
// alike, at every time got has built: views (through their
// fingerprints, which also encode the layer-0 inputs and every sender
// set), value sets and minima, and the crash and hidden tables.
func checkSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	n, h := want.Adv.N(), want.Horizon
	if got.Adv.N() != n || got.Horizon != h {
		t.Fatalf("graph over %d processes to horizon %d, want %d to %d", got.Adv.N(), got.Horizon, n, h)
	}
	if got.built > want.built {
		t.Fatalf("graph built to time %d, its reference only to %d", got.built, want.built)
	}
	for m := 0; m <= got.built; m++ {
		for i := 0; i < n; i++ {
			if g, w := got.Fingerprint(i, m), want.Fingerprint(i, m); g != w {
				t.Fatalf("view ⟨%d,%d⟩ differs from knowledge.New's", i, m)
			}
			if g, w := got.Vals(i, m), want.Vals(i, m); !g.Equal(w) {
				t.Fatalf("Vals⟨%d,%d⟩ = %s, knowledge.New %s", i, m, g, w)
			}
			if g, w := got.Min(i, m), want.Min(i, m); g != w {
				t.Fatalf("Min⟨%d,%d⟩ = %d, knowledge.New %d", i, m, g, w)
			}
			if g, w := got.HiddenCapacity(i, m), want.HiddenCapacity(i, m); g != w {
				t.Fatalf("HiddenCapacity⟨%d,%d⟩ = %d, knowledge.New %d", i, m, g, w)
			}
			if g, w := got.FailuresKnown(i, m), want.FailuresKnown(i, m); g != w {
				t.Fatalf("FailuresKnown⟨%d,%d⟩ = %d, knowledge.New %d", i, m, g, w)
			}
			for j := 0; j < n; j++ {
				if g, w := got.KnownCrashRound(i, m, j), want.KnownCrashRound(i, m, j); g != w {
					t.Fatalf("KnownCrashRound⟨%d,%d⟩(%d) = %d, knowledge.New %d", i, m, j, g, w)
				}
			}
			for l := 0; l <= m; l++ {
				if g, w := got.HiddenCount(i, m, l), want.HiddenCount(i, m, l); g != w {
					t.Fatalf("HiddenCount⟨%d,%d⟩(%d) = %d, knowledge.New %d", i, m, l, g, w)
				}
			}
			for v := 0; v <= 3; v++ {
				for tt := 0; tt <= n; tt++ {
					if g, w := got.Persists(i, m, v, tt), want.Persists(i, m, v, tt); g != w {
						t.Fatalf("Persists⟨%d,%d⟩(v=%d,t=%d) = %v, knowledge.New %v", i, m, v, tt, g, w)
					}
				}
			}
		}
	}
}

// TestForgetEndsReviveChain pins Forget: a pattern changed in place
// after its graph was released and the builder told to forget is built
// afresh, into the recycled storage, to the graph New builds — without
// Forget the builder would revive the old pattern's tables by pointer —
// and the parked header keeps no adversary meanwhile.
func TestForgetEndsReviveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := NewBuilder()
	for trial := 0; trial < 40; trial++ {
		adv := randomAdversary(rng, 5, 3, 3, 3)
		b.Build(adv, 4).Release()
		b.Forget()
		if b.spareG != nil && b.spareG.Adv != nil {
			t.Fatal("the parked header still points at the released adversary")
		}
		changed := randomAdversary(rng, 5, 3, 3, 3).Pattern
		*adv.Pattern = *changed
		b.TakeCounts()
		g := b.Build(adv, 4)
		if built, _, _ := b.TakeCounts(); built != 1 {
			t.Fatalf("trial %d: the build after Forget revived the old pattern's tables", trial)
		}
		checkSameGraph(t, g, New(adv, 4))
		g.Release()
	}
}
