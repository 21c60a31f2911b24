package model

import "math/rand"

// samplerSlab is how many draws each of a Sampler's slab allocations
// makes room for.
const samplerSlab = 64

// Sampler draws a stream of random adversaries from rng: exactly the
// adversaries, and exactly the rng draws, of successive Random calls on
// the same rng, so a stream keeps its seed's adversaries whichever of
// the two draws it. Next carves adversaries and inputs, and from a
// PatternSlab the patterns with their crash slices and delivery sets,
// out of fresh slabs that hold samplerSlab draws, so a draw costs only
// a share of the slabs; its adversaries are independent values a caller
// may keep, and a kept one pins only its slabs. AppendReused instead
// carves a window of draws from a caller's reused Arena, allocating
// nothing once the arena has grown to the window. Either way the
// Sampler draws rand.Perm's permutation into reused scratch. A Sampler
// is not safe for concurrent use.
type Sampler struct {
	rng   *rand.Rand
	p     RandomParams
	ahead int    // draws each of Next's slab allocations makes room for
	perm  []Proc // rand.Perm's permutation, drawn in place
	fresh Arena  // Next's slabs, never rewound
}

// Arena is reusable storage for windows of Sampler draws: the
// adversaries, inputs, failure patterns, crash slices, delivery sets and
// their words of one window, carved from blocks the arena keeps. Each
// AppendReused call carves again from the start of the blocks, so it
// overwrites the previous window's adversaries and patterns: a consumer
// must be done with a window, and keep no pointer into it, before it
// draws the next. The zero Arena is ready to use; it is not safe for
// concurrent use.
type Arena struct {
	advs   []Adversary
	inputs []Value
	pats   PatternSlab
}

// NewSampler returns a Sampler drawing adversaries bounded by p from
// rng. Like Random, it panics on parameters Random panics on.
func NewSampler(rng *rand.Rand, p RandomParams) *Sampler {
	return &Sampler{rng: rng, p: p, ahead: samplerSlab}
}

// Next draws the next adversary into fresh slabs: a uniformly random
// number of crashes in [0, T], each with a uniform crash round and an
// independently random delivery subset, over uniform inputs — the draw
// Random documents, in its order: the inputs, the crash count,
// rand.Perm(N) choosing the victims, then per victim its round and one
// coin per other process. The victims come in permutation order;
// SetCrash files each at its sorted place in the pattern's exact-length
// crash slice.
func (s *Sampler) Next() *Adversary { return s.draw(&s.fresh, s.ahead) }

// AppendReused draws the next k adversaries, exactly as k Next calls
// would, and appends them to dst. They are carved from a, whose blocks
// first grow to hold k draws of the sampler's parameters, so their
// storage — patterns included — is the storage of a's previous window:
// see Arena for what a consumer may keep.
func (s *Sampler) AppendReused(dst []*Adversary, a *Arena, k int) []*Adversary {
	if k <= 0 {
		return dst
	}
	n, t, w := s.p.N, s.p.T, (s.p.N+63)>>6
	a.advs = grow(a.advs, k)
	a.inputs = grow(a.inputs, k*n)
	a.pats.pats = grow(a.pats.pats, k)
	a.pats.crashes = grow(a.pats.crashes, k*t)
	a.pats.sets = grow(a.pats.sets, k*t)
	a.pats.words = grow(a.pats.words, k*t*w)
	clear(a.pats.words[:k*t*w]) // delivery sets are drawn by setting bits
	win := *a
	for range k {
		dst = append(dst, s.draw(&win, 1))
	}
	return dst
}

// grow returns blk, reallocated when it holds fewer than n entries.
func grow[T any](blk []T, n int) []T {
	if len(blk) < n {
		return make([]T, n)
	}
	return blk
}

// draw makes the next draw, carved from a's blocks; a block too short
// for it is replaced by a fresh one with room for ahead draws.
func (s *Sampler) draw(a *Arena, ahead int) *Adversary {
	p, rng := s.p, s.rng
	adv := &carve(&a.advs, 1, ahead)[0]
	in := carve(&a.inputs, p.N, ahead)
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
	fp := a.pats.Pattern(p.N, crashes, ahead)
	for c := 0; c < crashes; c++ {
		victim := perm[c]
		round := 1 + rng.Intn(p.MaxRound)
		d := a.pats.Set(p.N, ahead)
		words := d.Words()
		for q := 0; q < p.N; q++ {
			if q != victim && rng.Intn(2) == 0 {
				words[q>>6] |= 1 << uint(q&63)
			}
		}
		fp.SetCrash(Crash{Proc: victim, Round: round, Delivered: d})
	}
	*adv = Adversary{Inputs: in, Pattern: fp}
	return adv
}
