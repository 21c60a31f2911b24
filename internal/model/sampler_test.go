package model

import (
	"math/rand"
	"testing"
)

// referenceRandom is Random as it was written before the Sampler: a
// Builder per adversary, rand.Perm's own slice and a receiver list per
// crash. It is the oracle the Sampler's stream must reproduce draw for
// draw.
func referenceRandom(rng *rand.Rand, p RandomParams) *Adversary {
	b := NewBuilder(p.N, 0)
	for i := 0; i < p.N; i++ {
		b.Input(i, rng.Intn(p.MaxValue+1))
	}
	crashes := 0
	if p.T > 0 {
		crashes = rng.Intn(p.T + 1)
	}
	perm := rng.Perm(p.N)
	for c := 0; c < crashes; c++ {
		victim := perm[c]
		round := 1 + rng.Intn(p.MaxRound)
		var recv []Proc
		for q := 0; q < p.N; q++ {
			if q != victim && rng.Intn(2) == 0 {
				recv = append(recv, q)
			}
		}
		b.CrashSendingTo(victim, round, recv...)
	}
	return b.MustBuild()
}

// samplerCases are the parameters the Sampler is checked on: the
// benchmark's random workload, no crashes at all, the smallest system,
// and one whose delivery sets span two words.
var samplerCases = []struct {
	name string
	p    RandomParams
}{
	{"n=6,t=3", RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3}},
	{"t=0", RandomParams{N: 6, T: 0, MaxValue: 2, MaxRound: 3}},
	{"n=2", RandomParams{N: 2, T: 1, MaxValue: 1, MaxRound: 2}},
	{"n=70", RandomParams{N: 70, T: 8, MaxValue: 3, MaxRound: 4}},
}

// TestSamplerMatchesReference pins the Sampler's stream to the reference
// Random's over seeds 1–20, on both of its paths: the same adversaries
// by String and Fingerprint, draw for draw, and the rng left in the
// same state. Next's draws are compared only after the whole stream is
// drawn (so a slab carved twice shows). AppendReused draws windows of
// varying sizes into one reused arena — growing it mid-stream, and
// rewinding it each window — and each window is compared once it is
// whole, before the next overwrites it.
func TestSamplerMatchesReference(t *testing.T) {
	const draws = 300
	windows := []int{1, 7, 2, 32, 5, 1, 64}
	for _, c := range samplerCases {
		for seed := int64(1); seed <= 20; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			s := NewSampler(got, c.p)
			var gotAdvs, wantAdvs []*Adversary
			for range draws {
				gotAdvs = append(gotAdvs, s.Next())
				wantAdvs = append(wantAdvs, referenceRandom(want, c.p))
			}
			check := func(path string, i int, g *Adversary) {
				t.Helper()
				w := wantAdvs[i]
				if g.String() != w.String() || g.Fingerprint() != w.Fingerprint() {
					t.Fatalf("%s seed %d draw %d: %s %s, reference %s", c.name, seed, i, path, g, w)
				}
				if err := g.Validate(c.p.T, c.p.MaxValue); err != nil {
					t.Fatalf("%s seed %d draw %d: %s: %v", c.name, seed, i, path, err)
				}
			}
			for i, g := range gotAdvs {
				check("sampler", i, g)
			}

			inArena := rand.New(rand.NewSource(seed))
			as := NewSampler(inArena, c.p)
			var (
				arena Arena
				win   []*Adversary
			)
			for i, j := 0, 0; i < draws; j++ {
				k := min(windows[j%len(windows)], draws-i)
				win = as.AppendReused(win[:0], &arena, k)
				if len(win) != k {
					t.Fatalf("%s seed %d: a window of %d draws appended %d", c.name, seed, k, len(win))
				}
				for x, g := range win {
					check("arena", i+x, g)
				}
				i += k
			}
			if g, a, w := got.Int63(), inArena.Int63(), want.Int63(); g != w || a != w {
				t.Fatalf("%s seed %d: the rngs diverge after %d draws", c.name, seed, draws)
			}
		}
	}
}

// TestRandomMatchesReference pins Random, the one-adversary draw, to the
// reference on a shared stream of calls.
func TestRandomMatchesReference(t *testing.T) {
	for _, c := range samplerCases {
		got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := range 200 {
			g, w := Random(got, c.p), referenceRandom(want, c.p)
			if g.String() != w.String() || g.Fingerprint() != w.Fingerprint() {
				t.Fatalf("%s draw %d: Random %s, reference %s", c.name, i, g, w)
			}
		}
	}
}
