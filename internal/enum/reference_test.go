package enum

import (
	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// forEachPattern is the recursive failure-pattern enumeration the
// odometer (patternWalk) replaced, kept as its reference: every subset
// of processes of size ≤ T, every assignment of crash rounds, every
// delivery subset. fn additionally receives the crasher subset in
// increasing order.
func (s Space) forEachPattern(fn func(*model.FailurePattern, []model.Proc) bool) {
	var crashers []model.Proc
	var rec func(next int) bool
	rec = func(next int) bool {
		// Current subset (possibly empty): enumerate its configurations.
		if !s.forEachConfig(crashers, fn) {
			return false
		}
		if len(crashers) == s.T {
			return true
		}
		for p := next; p < s.N; p++ {
			crashers = append(crashers, p)
			ok := rec(p + 1)
			crashers = crashers[:len(crashers)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

// forEachConfig enumerates, for a fixed crasher subset, all crash rounds
// and delivery sets. The pattern handed to fn is mutated in place between
// calls, so fn must not retain it.
func (s Space) forEachConfig(crashers []model.Proc, fn func(*model.FailurePattern, []model.Proc) bool) bool {
	fp := model.NewFailurePattern(s.N)
	var rec func(idx int) bool
	rec = func(idx int) bool {
		if idx == len(crashers) {
			return fn(fp, crashers)
		}
		p := crashers[idx]
		d := bitset.New(s.N)
		for round := 1; round <= s.MaxRound; round++ {
			for mask := 0; mask < 1<<uint(s.N-1); mask++ {
				d.Clear()
				for b := 0; b < s.N-1; b++ {
					if mask&(1<<uint(b)) != 0 {
						q := b
						if b >= p {
							q = b + 1
						}
						d.Add(q)
					}
				}
				fp.Crashes[p] = model.Crash{Round: round, Delivered: d}
				if !rec(idx + 1) {
					return false
				}
			}
		}
		delete(fp.Crashes, p)
		return true
	}
	return rec(0)
}

// forEachInputsFrom enumerates one block's input vectors beginning at
// the start-th, calling fn with each vector's index within the block.
func (s Space) forEachInputsFrom(start int, fn func(int, []model.Value) bool) bool {
	win := Window{Len: s.inputCount() - start, Pattern: model.NewFailurePattern(s.N), start: start, values: s.Values}
	var w Walker
	return w.walk(win, func(i int, adv *model.Adversary, _ int) bool {
		return fn(start+i, adv.Inputs)
	})
}
