package knowledge

import (
	"math/rand"
	"testing"

	"setconsensus/internal/model"
)

// flip returns a copy of adv with process p's input replaced by v —
// adversaries are immutable, so single-input walks build fresh ones.
func flip(adv *model.Adversary, p int, v model.Value) *model.Adversary {
	inputs := make([]model.Value, adv.N())
	copy(inputs, adv.Inputs)
	inputs[p] = v
	return &model.Adversary{Inputs: inputs, Pattern: adv.Pattern}
}

// TestBuilderPatchEquivalence pins the delta fast path node for node:
// rebuilding through one Builder over the same failure pattern with a
// single input flipped per step — the exact accesses of a sweep walking
// one pattern block in Gray-code delta order — must produce graphs
// indistinguishable from the naive reference, query for query. A patch
// kernel that misses a touched view, or touches one it should not,
// diverges here.
func TestBuilderPatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder()
	for trial := 0; trial < 12; trial++ {
		adv := randomAdversary(rng, 5, 3, 3, 3)
		horizon := 4
		g := b.Build(adv, horizon)
		checkEquivalent(t, g, newReference(adv, horizon))
		g.Release()
		for step := 0; step < 8; step++ {
			adv = flip(adv, rng.Intn(adv.N()), rng.Intn(4))
			g = b.Build(adv, horizon)
			checkEquivalent(t, g, newReference(adv, horizon))
			g.Release()
		}
	}
	built, revived, patched := b.TakeCounts()
	// Each trial full-builds once; every flip is a 0- or 1-diff rebuild.
	if built != 12 || revived != 0 || patched != 12*8 {
		t.Fatalf("counts built=%d revived=%d patched=%d, want 12/0/96", built, revived, patched)
	}
}

// TestBuilderCountsEachPath walks one Builder through every way a
// rebuild can go and checks, with TakeCounts, which path each Build took,
// and that its graph equals the naive reference: a first build, and a
// rebuild the released spare cannot serve — another horizon, another
// pattern, inputs too wide for its value words — build in full;
// identical inputs and a single flipped input patch; two flipped inputs
// revive.
func TestBuilderCountsEachPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	adv := randomAdversary(rng, 4, 2, 2, 3)
	other := randomAdversary(rng, 4, 2, 2, 3)
	for other.Pattern.Fingerprint() == adv.Pattern.Fingerprint() {
		other = randomAdversary(rng, 4, 2, 2, 3)
	}
	next := flip(adv, 1, adv.Inputs[1]^1)
	two := flip(flip(next, 0, next.Inputs[0]^1), 2, next.Inputs[2]^1)
	full, revive, patch := [3]int{1, 0, 0}, [3]int{0, 1, 0}, [3]int{0, 0, 1}
	b := NewBuilder()
	for _, step := range []struct {
		what    string
		adv     *model.Adversary
		horizon int
		counts  [3]int // built, revived, patched
	}{
		{"first build", adv, 3, full},
		{"identical inputs", adv, 3, patch},
		{"one flipped input", next, 3, patch},
		{"two flipped inputs", two, 3, revive},
		{"another horizon", two, 2, full},
		{"another pattern", other, 2, full},
		{"inputs wider than the spare's value words", flip(other, 1, 70), 2, full},
	} {
		g := b.Build(step.adv, step.horizon)
		checkEquivalent(t, g, newReference(step.adv, step.horizon))
		g.Release()
		if built, revived, patched := b.TakeCounts(); [3]int{built, revived, patched} != step.counts {
			t.Errorf("%s: built/revived/patched %d/%d/%d, want %v", step.what, built, revived, patched, step.counts)
		}
	}
}

// TestBuilderPatchSurvivesInterleavedBuilds mirrors the revive
// stale-scratch guard for the patch path: a full build over another
// adversary between Release and a same-pattern single-flip rebuild
// overwrites the scratch (and its touched-views table); Build must
// notice and build in full.
func TestBuilderPatchSurvivesInterleavedBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := NewBuilder()
	advA := randomAdversary(rng, 5, 3, 3, 3)
	advB := randomAdversary(rng, 3, 1, 2, 2)

	gA := b.Build(advA, 4)
	gB := b.Build(advB, 2) // overwrites the scratch while gA is live
	gA.Release()
	advA2 := flip(advA, 0, advA.Inputs[0]^1)
	b.TakeCounts()
	gA2 := b.Build(advA2, 4) // full build: scratch describes B's pattern
	if built, _, _ := b.TakeCounts(); built != 1 {
		t.Fatal("a single flip over a stale scratch must build in full")
	}
	checkEquivalent(t, gA2, newReference(advA2, 4))
	gA2.Release()
	gB.Release()
}

// TestBuilderPatchDegenerateEdges covers the corners of the kernel:
// horizon 0 (only layer-0 nodes — every node with the flipped process in
// view is itself layer 0) and a flip on a crashed process whose frozen
// successors must copy patched predecessor rows in order.
func TestBuilderPatchDegenerateEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := NewBuilder()

	// Horizon 0.
	adv := randomAdversary(rng, 4, 2, 3, 3)
	b.Build(adv, 0).Release()
	for p := 0; p < adv.N(); p++ {
		adv = flip(adv, p, rng.Intn(4))
		g := b.Build(adv, 0)
		checkEquivalent(t, g, newReference(adv, 0))
		g.Release()
	}
	_, _, patched := b.TakeCounts()
	if patched == 0 {
		t.Fatal("horizon-0 flips never took the patch path")
	}

	// Flips on every process of a pattern where every possible process
	// crashes — maximizing frozen nodes — at a horizon past every crash.
	adv = randomAdversary(rng, 5, 4, 2, 2)
	b.Build(adv, 5).Release()
	for p := 0; p < adv.N(); p++ {
		adv = flip(adv, p, adv.Inputs[p]^1)
		g := b.Build(adv, 5)
		checkEquivalent(t, g, newReference(adv, 5))
		g.Release()
	}
}

// TestBuilderPatchAllocationFree asserts the steady state of a delta
// walk costs no allocations: after the full build, alternating between
// two single-flip neighbours patches in place with zero garbage.
func TestBuilderPatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBuilder()
	a := randomAdversary(rng, 5, 3, 3, 3)
	bAdv := flip(a, 2, a.Inputs[2]^1)
	b.Build(a, 4).Release()
	advs := [2]*model.Adversary{bAdv, a}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		b.Build(advs[i&1], 4).Release()
		i++
	})
	if avg != 0 {
		t.Fatalf("patch build allocated %.1f objects per run, want 0", avg)
	}
}
