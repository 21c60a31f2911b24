package knowledge

import (
	"math/rand"
	"strings"
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// TestGrowMatchesFullBuild pins the layer-at-a-time kernel: a graph
// started at every depth and grown one layer at a time equals, at each
// built depth, both the full build New makes and the naive reference,
// node for node — views, known crashes, failures known, hidden counts,
// HC, Vals, Min and Persists. Every twentieth adversary has 70
// processes, so its sets span two words.
func TestGrowMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB1D))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	b := NewBuilder()
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(7)
		tCr, horizon := rng.Intn(n), rng.Intn(6)
		if trial%20 == 19 {
			n, tCr, horizon = 70, 1+rng.Intn(8), 1+rng.Intn(2)
		}
		adv := randomAdversary(rng, n, tCr, 1+rng.Intn(4), 1+rng.Intn(3))
		ref, full := newReference(adv, horizon), New(adv, horizon)
		start := rng.Intn(horizon + 1)
		g := b.BuildTo(adv, horizon, start)
		for d := start; ; d++ {
			if g.built != d {
				t.Fatalf("trial %d: graph built to time %d, want %d", trial, g.built, d)
			}
			checkEquivalent(t, g, ref)
			checkSameGraph(t, g, full)
			if d == horizon {
				break
			}
			Grow(g, d+1)
		}
		Grow(g, horizon) // a no-op on a whole graph
		g.Release()
	}
}

// TestGrowAfterReviveAndPatch walks one Builder through partially built
// spares: each adversary shares the previous one's pattern with zero,
// one or two inputs changed — a patch, a patch and a revive — and is
// built to a random depth, which a revive never lowers below the
// spare's, then grown partway. At every step the graph equals New's at
// every built time, the builder counts one patch or revive and no full
// build, and a patch's touched-views table covers the spare's built
// nodes.
func TestGrowAfterReviveAndPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	b := NewBuilder()
	for trial := 0; trial < 40; trial++ {
		n, horizon := 2+rng.Intn(6), 1+rng.Intn(4)
		adv := randomAdversary(rng, n, rng.Intn(n), 1+rng.Intn(3), 3)
		g := b.BuildTo(adv, horizon, rng.Intn(horizon+1))
		depth := g.built
		g.Release()
		b.TakeCounts()
		for step := 0; step < 9; step++ {
			next := adv
			p := rng.Intn(n)
			switch step % 3 {
			case 1:
				next = flip(adv, p, adv.Inputs[p]^1)
			case 2:
				q := (p + 1 + rng.Intn(n-1)) % n
				next = flip(flip(adv, p, adv.Inputs[p]^1), q, adv.Inputs[q]^1)
			}
			g = b.BuildTo(next, horizon, rng.Intn(horizon+1))
			built, revived, patched := b.TakeCounts()
			if want := step%3 == 2; built != 0 || (revived == 1) != want || revived+patched != 1 {
				t.Fatalf("trial %d step %d: counts built=%d revived=%d patched=%d", trial, step, built, revived, patched)
			}
			if g.built < depth {
				t.Fatalf("trial %d step %d: a spare built to time %d came back built to %d", trial, step, depth, g.built)
			}
			if step%3 == 1 && b.sc.touchLen < (depth+1)*n {
				t.Fatalf("trial %d step %d: a patch of a spare with %d nodes built read a touched-views table of %d", trial, step, (depth+1)*n, b.sc.touchLen)
			}
			full := New(next, horizon)
			checkSameGraph(t, g, full)
			Grow(g, g.built+rng.Intn(horizon-g.built+1))
			checkSameGraph(t, g, full)
			depth = g.built
			g.Release()
			adv = next
		}
	}
}

// TestQueryAboveBuiltLayerPanics pins that a partially built graph
// refuses every query above its built layer, as one above the horizon,
// rather than answer from a row it has not computed, and that growing
// past the horizon, or a graph whose builder's scratch has moved on to
// another pattern, panics too.
func TestQueryAboveBuiltLayerPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	adv := randomAdversary(rng, 4, 2, 2, 2)
	b := NewBuilder()
	g := b.BuildTo(adv, 3, 1)
	g.View(0, 1) // at the built layer: answers
	g.Min(3, 1)
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
				return
			}
			msg, _ := r.(string)
			if e, ok := r.(error); ok {
				msg = e.Error()
			}
			if !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %q, want %q in it", name, msg, want)
			}
		}()
		fn()
	}
	for name, fn := range map[string]func(){
		"View":           func() { g.View(0, 2) },
		"Seen":           func() { g.Seen(0, 2, 1, 0) },
		"KnownCrash":     func() { g.KnownCrashRound(1, 2, 0) },
		"HiddenCount":    func() { g.HiddenCount(2, 2, 0) },
		"HiddenCapacity": func() { g.HiddenCapacity(3, 3) },
		"FailuresKnown":  func() { g.FailuresKnown(0, 2) },
		"Vals":           func() { g.Vals(0, 2) },
		"Min":            func() { g.Min(0, 2) },
		"MinRow":         func() { g.MinRow(2) },
		"HCRow":          func() { g.HCRow(2) },
		"Persists":       func() { g.Persists(0, 2, 0, 4) },
	} {
		mustPanic(name, "layers 0..1 built of horizon 3", fn)
	}
	mustPanic("Grow past the horizon", "horizon 3", func() { Grow(g, 4) })

	// Another pattern's full build on the same builder moves its scratch
	// on: growing the first graph now would read the wrong pattern.
	other := b.BuildTo(randomAdversary(rng, 4, 2, 2, 2), 3, 0)
	mustPanic("Grow of a stale graph", "another pattern", func() { Grow(g, 2) })
	other.Release()
	g.Release()

	// A whole graph never grows, and still bounds queries by the horizon.
	full := New(adv, 2)
	Grow(full, 2)
	mustPanic("View past the horizon", "horizon 2", func() { full.View(0, 3) })
}

// FuzzGrow checks growth against New over any adversary of at most 8
// processes with inputs below 8, and any order of growth steps
// interleaved with rebuilds on one Builder — patches, revives and
// identical-input reuses of the partially built spare, and full builds
// over a fresh pattern, up to 32 steps: after every step, the graph
// must equal the one New builds, node for node, at every built time,
// and once grown whole at every time.
func FuzzGrow(f *testing.F) {
	f.Add([]byte{4, 3, 1, 2, 3, 0, 2, 0x11, 0x23, 0xA5, 0, 1, 2, 3, 0, 5, 9})
	f.Add([]byte{8, 4, 7, 7, 7, 7, 7, 7, 7, 7, 6, 0xFF, 0x42, 0x17, 4, 4, 8, 12, 16, 1, 2})
	f.Add([]byte{2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		n, horizon := 2+next()%7, next()%5
		pattern := func() *model.FailurePattern {
			pat := model.NewFailurePattern(n)
			for c := next() % n; c > 0; c-- {
				p, round, del := next()%n, 1+next()%4, next()
				if pat.Faulty(p) {
					continue
				}
				set := bitset.New(n)
				for q := 0; q < n; q++ {
					if del>>q&1 == 1 {
						set.Add(q)
					}
				}
				pat.SetCrash(model.Crash{Proc: p, Round: round, Delivered: set})
			}
			return pat
		}
		inputs := make([]model.Value, n)
		for i := range inputs {
			inputs[i] = next() % 8
		}
		adv := model.NewAdversary(inputs, pattern())
		b := NewBuilder()
		g := b.BuildTo(adv, horizon, next()%(horizon+1))
		checkSameGraph(t, g, New(adv, horizon))
		for ops := 0; len(data) > 0 && ops < 32; ops++ {
			op := next()
			switch op % 4 {
			case 0:
				Grow(g, min(g.built+1+op>>2%3, horizon))
			default:
				g.Release()
				in := append([]model.Value(nil), adv.Inputs...)
				pat := adv.Pattern
				switch op % 4 {
				case 1: // one input changed: a patch
					in[next()%n] = next() % 8
				case 2: // any inputs changed: a revive
					for i := range in {
						in[i] = next() % 8
					}
				case 3: // a fresh pattern: a full build
					pat = pattern()
				}
				adv = &model.Adversary{Inputs: in, Pattern: pat}
				g = b.BuildTo(adv, horizon, op>>2%(horizon+1))
			}
			checkSameGraph(t, g, New(adv, horizon))
		}
		Grow(g, horizon)
		checkSameGraph(t, g, New(adv, horizon))
		g.Release()
	})
}
