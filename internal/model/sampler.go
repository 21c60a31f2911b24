package model

import (
	"math/rand"

	"setconsensus/internal/bitset"
)

// samplerSlab is how many adversaries, patterns and delivery sets a
// Sampler carves from one allocation each.
const samplerSlab = 64

// Sampler draws a stream of random adversaries from rng: exactly the
// adversaries, and exactly the rng draws, of successive Random calls on
// the same rng, so a stream keeps its seed's adversaries whichever of
// the two draws it. The Sampler carves adversaries, inputs, patterns and
// delivery sets from slabs of samplerSlab entries and draws rand.Perm's
// permutation into reused scratch, so a draw costs the failure pattern's
// map and a share of the slabs instead of a dozen allocations. Carved
// adversaries are independent values a caller may keep; a kept one pins
// only its slabs. A Sampler is not safe for concurrent use.
type Sampler struct {
	rng  *rand.Rand
	p    RandomParams
	slab int    // entries per slab allocation
	perm []Proc // rand.Perm's permutation, drawn in place

	advs   []Adversary
	pats   []FailurePattern
	inputs []Value
	sets   []bitset.Set
	words  []uint64
}

// NewSampler returns a Sampler drawing adversaries bounded by p from
// rng. Like Random, it panics on parameters Random panics on.
func NewSampler(rng *rand.Rand, p RandomParams) *Sampler {
	return &Sampler{rng: rng, p: p, slab: samplerSlab}
}

// Next draws the next adversary: a uniformly random number of crashes in
// [0, T], each with a uniform crash round and an independently random
// delivery subset, over uniform inputs — the draw Random documents, in
// its order: the inputs, the crash count, rand.Perm(N) choosing the
// victims, then per victim its round and one coin per other process.
func (s *Sampler) Next() *Adversary {
	p, rng := s.p, s.rng
	if len(s.advs) == 0 {
		s.advs = make([]Adversary, s.slab)
	}
	adv := &s.advs[0]
	s.advs = s.advs[1:]
	if len(s.inputs) < p.N {
		s.inputs = make([]Value, p.N*s.slab)
	}
	in := s.inputs[:p.N:p.N]
	s.inputs = s.inputs[p.N:]
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
	if len(s.pats) == 0 {
		s.pats = make([]FailurePattern, s.slab)
	}
	fp := &s.pats[0]
	s.pats = s.pats[1:]
	*fp = FailurePattern{N: p.N, Crashes: make(map[Proc]Crash)}
	for c := 0; c < crashes; c++ {
		victim := perm[c]
		round := 1 + rng.Intn(p.MaxRound)
		d := s.set()
		words := d.Words()
		for q := 0; q < p.N; q++ {
			if q != victim && rng.Intn(2) == 0 {
				words[q>>6] |= 1 << uint(q&63)
			}
		}
		fp.Crashes[victim] = Crash{Round: round, Delivered: d}
	}
	adv.Inputs, adv.Pattern = in, fp
	return adv
}

// set carves an empty delivery set over N processes.
func (s *Sampler) set() *bitset.Set {
	w := (s.p.N + 63) >> 6
	if len(s.sets) == 0 {
		s.sets = make([]bitset.Set, s.slab)
	}
	if len(s.words) < w {
		s.words = make([]uint64, w*s.slab)
	}
	d := &s.sets[0]
	s.sets = s.sets[1:]
	*d = bitset.Wrap(s.words[:w])
	s.words = s.words[w:]
	return d
}
