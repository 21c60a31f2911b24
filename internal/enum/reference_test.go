package enum

import (
	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// forEachPattern is the recursive failure-pattern enumeration the raw
// odometer (rawWalk) replaced, kept as its reference: every subset of
// processes of size ≤ T, every assignment of crash rounds, every
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

// rawWalk enumerates a space's raw failure patterns, duplicates
// included, in the order of forEachPattern: every subset of at most T
// crashers in pre-order, and for each every assignment of crash rounds
// and delivery subsets, round-major, the last crasher's varying fastest.
// It is an odometer, so the dedup walk can stop after any pattern. The
// pattern is mutated in place between steps.
type rawWalk struct {
	s        Space
	fp       *model.FailurePattern
	crashers []model.Proc // the current subset, increasing
	configs  int          // assignments per crasher: MaxRound × 2^(N−1)
	config   []int        // per crasher: (round−1)·2^(N−1) + delivery mask
	sets     []*bitset.Set
}

// next steps to the next raw pattern; false after the last. The first
// step yields the failure-free pattern.
func (w *rawWalk) next() bool {
	if w.fp == nil {
		w.fp = model.NewFailurePattern(w.s.N)
		w.configs = w.s.MaxRound << uint(w.s.N-1)
		return true
	}
	for i := len(w.crashers) - 1; i >= 0; i-- {
		if w.config[i]++; w.config[i] < w.configs {
			w.assign(i)
			for j := i + 1; j < len(w.crashers); j++ {
				w.config[j] = 0
				w.assign(j)
			}
			return true
		}
	}
	if !w.nextSubset() {
		return false
	}
	clear(w.fp.Crashes)
	for i := range w.crashers {
		w.config[i] = 0
		w.assign(i)
	}
	return true
}

func (w *rawWalk) nextSubset() bool {
	if m := len(w.crashers); m < w.s.T {
		first := 0
		if m > 0 {
			first = w.crashers[m-1] + 1
		}
		if first < w.s.N {
			w.push(first)
			return true
		}
	}
	for m := len(w.crashers); m > 0; m-- {
		last := w.crashers[m-1]
		w.crashers = w.crashers[:m-1]
		if last+1 < w.s.N {
			w.push(last + 1)
			return true
		}
	}
	return false
}

func (w *rawWalk) push(p model.Proc) {
	w.crashers = append(w.crashers, p)
	if len(w.config) < len(w.crashers) {
		w.config = append(w.config, 0)
		w.sets = append(w.sets, bitset.New(w.s.N))
	}
}

func (w *rawWalk) assign(i int) {
	p := w.crashers[i]
	half := 1 << uint(w.s.N-1)
	round, mask := w.config[i]/half+1, w.config[i]%half
	d := w.sets[i]
	d.Clear()
	for b := 0; b < w.s.N-1; b++ {
		if mask&(1<<uint(b)) != 0 {
			q := b
			if b >= p {
				q = b + 1
			}
			d.Add(q)
		}
	}
	w.fp.Crashes[p] = model.Crash{Round: round, Delivered: d}
}

// dedupCursor is the enumeration the canonical walk replaced, kept as its
// oracle: it walks every raw pattern, drops each whose fingerprint it
// has seen, and cuts the offsets [from, to) into windows exactly as
// Cursor does. Entering it at an offset walks the whole prefix.
type dedupCursor struct {
	s         Space
	block     int
	next, end int
	found     int // offset one past the last canonical block discovered
	pat       *model.FailurePattern
	patBase   int
	raw       rawWalk
	seen      map[string]struct{}
	key       []byte
	done      bool
}

func newDedupCursor(s Space, from, to int) *dedupCursor {
	c := &dedupCursor{s: s, next: from, end: to, raw: rawWalk{s: s}, seen: make(map[string]struct{})}
	if s.Validate() != nil || from < 0 {
		c.done = true
	}
	c.block = s.inputCount()
	return c
}

func (c *dedupCursor) Next(max int) (Window, bool) {
	if c.done || c.next >= c.end {
		return Window{}, false
	}
	if c.pat == nil || c.next >= c.patBase+c.block {
		if !c.advance() {
			c.done = true
			return Window{}, false
		}
	}
	lo, hi := c.next, min(c.patBase+c.block, c.end)
	if max > 0 {
		hi = min(hi, c.patBase+((lo-c.patBase)/max+1)*max)
	}
	c.next = hi
	return Window{Base: lo, Len: hi - lo, Pattern: c.pat, start: lo - c.patBase, values: c.s.Values}, true
}

// advance walks the raw patterns to the next unseen one whose block ends
// past c.next and materializes its canonical form.
func (c *dedupCursor) advance() bool {
	for c.raw.next() {
		c.key = c.raw.fp.AppendFingerprint(c.key[:0])
		if _, dup := c.seen[string(c.key)]; dup {
			continue
		}
		c.seen[string(c.key)] = struct{}{}
		base := c.found
		c.found += c.block
		if c.found <= c.next {
			continue
		}
		c.pat, c.patBase = c.raw.fp.Canonical(), base
		return true
	}
	return false
}

// dedupPatterns lists the dedup walk's canonical patterns in order.
func dedupPatterns(s Space) []*model.FailurePattern {
	var out []*model.FailurePattern
	c := newDedupCursor(s, 0, 1<<62)
	for c.advance() {
		out = append(out, c.pat)
	}
	return out
}

// windowCutter is what Cursor and dedupCursor share.
type windowCutter interface {
	Next(max int) (Window, bool)
}

// walkCutter enumerates every window c cuts at slice bound max.
func walkCutter(c windowCutter, max int, yield func(off int, adv *model.Adversary, changed int) bool) {
	var w Walker
	for {
		win, ok := c.Next(max)
		if !ok || !w.walk(win, yield) {
			return
		}
	}
}
