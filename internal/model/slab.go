package model

import "setconsensus/internal/bitset"

// carve cuts the next k entries off the block *blk, first replacing a
// block too short for them with a fresh one of k·ahead entries. The cut
// is a full-slice expression, so its capacity is exactly k: an append to
// one carved slice reallocates instead of writing into the next one's
// entries. carve never hands an entry out twice from one block header:
// a stream carved from a header that is never rewound (PatternSlab's
// users, Sampler.Next) yields independent values however long a caller
// keeps them, while an Arena rewinds by carving each window from a
// fresh copy of its headers, and so reuses its blocks.
func carve[T any](blk *[]T, k, ahead int) []T {
	if len(*blk) < k {
		*blk = make([]T, k*max(ahead, 1))
	}
	s := (*blk)[:k:k]
	*blk = (*blk)[k:]
	return s
}

// PatternSlab carves failure patterns, their exact-length crash slices,
// delivery sets and the sets' words from shared blocks, so a stream of
// patterns costs a few allocations per block instead of a map and a set
// per pattern. Every carve takes ahead, how many more carves of its size
// the stream still expects: a spent block is replaced by one sized for
// that many, so a stream that knows it is short does not pay for a long
// one's blocks. Carved values are never handed out twice, so each
// pattern is a distinct pointer, and a kept pattern pins only its
// blocks — except through an Arena, which carves every window from a
// copy of its PatternSlab and so hands the same slots out again. The
// zero PatternSlab is ready to use; it is not safe for concurrent use.
type PatternSlab struct {
	pats    []FailurePattern
	crashes []Crash
	sets    []bitset.Set
	words   []uint64
}

// Pattern carves a failure-free pattern over n processes with room for
// exactly k crashes: SetCrash fills it in any order without allocating
// and keeps Crashes sorted, and a (k+1)-st crash reallocates.
func (s *PatternSlab) Pattern(n, k, ahead int) *FailurePattern {
	fp := &carve(&s.pats, 1, ahead)[0]
	*fp = FailurePattern{N: n, Crashes: carve(&s.crashes, k, ahead)[:0]}
	return fp
}

// Set carves an empty delivery set over n processes.
func (s *PatternSlab) Set(n, ahead int) *bitset.Set {
	d := &carve(&s.sets, 1, ahead)[0]
	*d = bitset.Wrap(carve(&s.words, (n+63)>>6, ahead))
	return d
}
