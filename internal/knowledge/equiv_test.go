package knowledge

import (
	"math/rand"
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// randomAdversary draws an adversary over n processes: up to t crashers
// with uniform crash rounds in 1..maxRound and uniform delivery subsets,
// inputs uniform in 0..maxVal.
func randomAdversary(rng *rand.Rand, n, t, maxRound, maxVal int) *model.Adversary {
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = rng.Intn(maxVal + 1)
	}
	pat := model.NewFailurePattern(n)
	crashers := rng.Perm(n)[:rng.Intn(t+1)]
	for _, p := range crashers {
		del := bitset.New(n)
		for q := 0; q < n; q++ {
			if rng.Intn(2) == 0 {
				del.Add(q)
			}
		}
		pat.SetCrash(model.Crash{Proc: p, Round: 1 + rng.Intn(maxRound), Delivered: del})
	}
	return model.NewAdversary(inputs, pat)
}

// checkEquivalent asserts every query of the arena graph agrees with the
// retained naive reference, node for node, at every time the graph has
// built.
func checkEquivalent(t *testing.T, g *Graph, ref *referenceGraph) {
	t.Helper()
	n, h := g.Adv.N(), g.built
	for m := 0; m <= h; m++ {
		for i := 0; i < n; i++ {
			gv, rv := g.View(i, m), ref.view(i, m)
			if gv.Proc != rv.Proc || gv.Time != rv.Time || len(gv.Layers) != len(rv.Layers) {
				t.Fatalf("⟨%d,%d⟩: view shape (proc=%d time=%d layers=%d) vs reference (proc=%d time=%d layers=%d)",
					i, m, gv.Proc, gv.Time, len(gv.Layers), rv.Proc, rv.Time, len(rv.Layers))
			}
			for l := range gv.Layers {
				if !gv.Layers[l].Equal(rv.Layers[l]) {
					t.Fatalf("⟨%d,%d⟩ layer %d: %s vs reference %s", i, m, l, gv.Layers[l], rv.Layers[l])
				}
			}
			if got, want := g.HiddenCapacity(i, m), ref.hiddenCapacity(i, m); got != want {
				t.Fatalf("HiddenCapacity⟨%d,%d⟩ = %d, reference %d", i, m, got, want)
			}
			if got, want := g.FailuresKnown(i, m), ref.failuresKnown(i, m); got != want {
				t.Fatalf("FailuresKnown⟨%d,%d⟩ = %d, reference %d", i, m, got, want)
			}
			if got, want := g.Min(i, m), ref.min(i, m); got != want {
				t.Fatalf("Min⟨%d,%d⟩ = %d, reference %d", i, m, got, want)
			}
			if got, want := g.Vals(i, m), ref.vals(i, m); !got.Equal(want) {
				t.Fatalf("Vals⟨%d,%d⟩ = %s, reference %s", i, m, got, want)
			}
			for j := 0; j < n; j++ {
				if got, want := g.KnownCrashRound(i, m, j), ref.knownCrashRound(i, m, j); got != want {
					t.Fatalf("KnownCrashRound⟨%d,%d⟩(%d) = %d, reference %d", i, m, j, got, want)
				}
				if got, want := g.LastSeen(i, m, j), ref.lastSeen(i, m, j); got != want {
					t.Fatalf("LastSeen⟨%d,%d⟩(%d) = %d, reference %d", i, m, j, got, want)
				}
				for l := 0; l <= m; l++ {
					if got, want := g.Seen(i, m, j, l), ref.seen(i, m, j, l); got != want {
						t.Fatalf("Seen⟨%d,%d⟩(%d,%d) = %v, reference %v", i, m, j, l, got, want)
					}
					if got, want := g.Hidden(i, m, j, l), ref.hidden(i, m, j, l); got != want {
						t.Fatalf("Hidden⟨%d,%d⟩(%d,%d) = %v, reference %v", i, m, j, l, got, want)
					}
				}
			}
			for l := 0; l <= m; l++ {
				want := 0
				for j := 0; j < n; j++ {
					if ref.hidden(i, m, j, l) {
						want++
					}
				}
				if got := g.HiddenCount(i, m, l); got != want {
					t.Fatalf("HiddenCount⟨%d,%d⟩(%d) = %d, reference %d", i, m, l, got, want)
				}
			}
			for v := 0; v <= 3; v++ {
				for tt := 0; tt <= n; tt++ {
					if got, want := g.Persists(i, m, v, tt), ref.persists(i, m, v, tt); got != want {
						t.Fatalf("Persists⟨%d,%d⟩(v=%d,t=%d) = %v, reference %v", i, m, v, tt, got, want)
					}
				}
			}
		}
	}
}

// TestEquivalenceRandomized is the gate on the arena rewrite: seeded
// random adversaries, every query cross-checked against the naive
// reference implementation.
func TestEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(7) // 2..8 processes
		tCr := rng.Intn(n)   // up to n−1 crashers
		maxRound := 1 + rng.Intn(4)
		maxVal := 1 + rng.Intn(3)
		horizon := rng.Intn(6)
		adv := randomAdversary(rng, n, tCr, maxRound, maxVal)
		g := New(adv, horizon)
		ref := newReference(adv, horizon)
		checkEquivalent(t, g, ref)
	}
}

// TestEquivalenceBuilderReuse rebuilds through one Builder with Release
// between adversaries, so every trial after the first runs on recycled
// storage — stale-state bugs in the arena reuse path surface here.
func TestEquivalenceBuilderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	var prev *Graph
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		adv := randomAdversary(rng, n, rng.Intn(n), 1+rng.Intn(3), 2)
		horizon := rng.Intn(5)
		if prev != nil {
			prev.Release()
		}
		g := b.Build(adv, horizon)
		checkEquivalent(t, g, newReference(adv, horizon))
		prev = g
	}
}

// TestFingerprintEquivalenceClasses asserts the binary fingerprint
// induces exactly the partition of nodes the reference string encoding
// does — within one adversary and across two adversaries of the same n,
// the regime the view-interning searches rely on.
func TestFingerprintEquivalenceClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		horizon := 1 + rng.Intn(4)
		a1 := randomAdversary(rng, n, rng.Intn(n), 1+rng.Intn(3), 2)
		a2 := randomAdversary(rng, n, rng.Intn(n), 1+rng.Intn(3), 2)
		type node struct{ ref, bin string }
		var nodes []node
		for _, adv := range []*model.Adversary{a1, a2} {
			g := New(adv, horizon)
			ref := newReference(adv, horizon)
			for m := 0; m <= horizon; m++ {
				for i := 0; i < n; i++ {
					nodes = append(nodes, node{ref.fingerprint(i, m), g.Fingerprint(i, m)})
				}
			}
		}
		for x := range nodes {
			for y := x + 1; y < len(nodes); y++ {
				refEq := nodes[x].ref == nodes[y].ref
				binEq := nodes[x].bin == nodes[y].bin
				if refEq != binEq {
					t.Fatalf("fingerprint partition diverged: reference equal=%v binary equal=%v\nref x: %q\nref y: %q",
						refEq, binEq, nodes[x].ref, nodes[y].ref)
				}
			}
		}
	}
}

// TestNewConcurrent exercises the pooled build scratch from many
// goroutines; run under -race this guards the sync.Pool usage.
func TestNewConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	advs := make([]*model.Adversary, 16)
	refs := make([]*referenceGraph, len(advs))
	for i := range advs {
		advs[i] = randomAdversary(rng, 5, 3, 3, 2)
		refs[i] = newReference(advs[i], 4)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- nil }()
			for rep := 0; rep < 20; rep++ {
				idx := (w + rep) % len(advs)
				g := New(advs[idx], 4)
				for i := 0; i < 5; i++ {
					if g.HiddenCapacity(i, 4) != refs[idx].hiddenCapacity(i, 4) {
						t.Errorf("worker %d: HC mismatch on adversary %d", w, idx)
						return
					}
					_ = g.Fingerprint(i, 4)
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}
