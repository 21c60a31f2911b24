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
// Random's over seeds 1–20: the same adversaries by String and
// Fingerprint, draw for draw, with every drawn adversary compared only
// after the whole stream is drawn (so a slab carved twice shows), and
// the rng left in the same state.
func TestSamplerMatchesReference(t *testing.T) {
	const draws = 300
	for _, c := range samplerCases {
		for seed := int64(1); seed <= 20; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			s := NewSampler(got, c.p)
			var gotAdvs, wantAdvs []*Adversary
			for range draws {
				gotAdvs = append(gotAdvs, s.Next())
				wantAdvs = append(wantAdvs, referenceRandom(want, c.p))
			}
			for i := range gotAdvs {
				g, w := gotAdvs[i], wantAdvs[i]
				if g.String() != w.String() || g.Fingerprint() != w.Fingerprint() {
					t.Fatalf("%s seed %d draw %d: sampler %s, reference %s", c.name, seed, i, g, w)
				}
				if err := g.Validate(c.p.T, c.p.MaxValue); err != nil {
					t.Fatalf("%s seed %d draw %d: %v", c.name, seed, i, err)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
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
