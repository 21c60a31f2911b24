package model

import "math/rand"

// samplerSlab is how many draws each of a Sampler's slab allocations
// makes room for.
const samplerSlab = 64

// Sampler draws a stream of random adversaries from rng: exactly the
// adversaries, and exactly the rng draws, of successive Random calls on
// the same rng, so a stream keeps its seed's adversaries whichever of
// the two draws it. The Sampler carves adversaries and inputs, and from
// a PatternSlab the patterns with their crash slices and delivery sets,
// out of slabs that hold samplerSlab draws, and it draws rand.Perm's
// permutation into reused scratch, so a draw costs only a share of the
// slabs. Carved
// adversaries are independent values a caller may keep; a kept one pins
// only its slabs. A Sampler is not safe for concurrent use.
type Sampler struct {
	rng   *rand.Rand
	p     RandomParams
	ahead int    // draws each slab allocation makes room for
	perm  []Proc // rand.Perm's permutation, drawn in place

	advs   []Adversary
	inputs []Value
	pats   PatternSlab
}

// NewSampler returns a Sampler drawing adversaries bounded by p from
// rng. Like Random, it panics on parameters Random panics on.
func NewSampler(rng *rand.Rand, p RandomParams) *Sampler {
	return &Sampler{rng: rng, p: p, ahead: samplerSlab}
}

// Next draws the next adversary: a uniformly random number of crashes in
// [0, T], each with a uniform crash round and an independently random
// delivery subset, over uniform inputs — the draw Random documents, in
// its order: the inputs, the crash count, rand.Perm(N) choosing the
// victims, then per victim its round and one coin per other process.
// The victims come in permutation order; SetCrash files each at its
// sorted place in the pattern's exact-length crash slice.
func (s *Sampler) Next() *Adversary {
	p, rng := s.p, s.rng
	adv := &carve(&s.advs, 1, s.ahead)[0]
	in := carve(&s.inputs, p.N, s.ahead)
	for i := range in {
		in[i] = rng.Intn(p.MaxValue + 1)
	}
	crashes := 0
	if p.T > 0 {
		crashes = rng.Intn(p.T + 1)
	}
	if cap(s.perm) < p.N {
		s.perm = make([]Proc, p.N)
	}
	perm := s.perm[:p.N]
	for i := range perm {
		// rand.Perm's loop: every slot is written before it is read, so
		// the scratch needs no clearing.
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	fp := s.pats.Pattern(p.N, crashes, s.ahead)
	for c := 0; c < crashes; c++ {
		victim := perm[c]
		round := 1 + rng.Intn(p.MaxRound)
		d := s.pats.Set(p.N, s.ahead)
		words := d.Words()
		for q := 0; q < p.N; q++ {
			if q != victim && rng.Intn(2) == 0 {
				words[q>>6] |= 1 << uint(q&63)
			}
		}
		fp.SetCrash(Crash{Proc: victim, Round: round, Delivered: d})
	}
	adv.Inputs, adv.Pattern = in, fp
	return adv
}
