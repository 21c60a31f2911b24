// Package enum enumerates adversaries exhaustively for small systems.
// The unbeatability and conformance experiments quantify over "all runs";
// for small (n, t, rounds, values) the adversary space is finite and this
// package walks all of it, canonicalizing away unobservable differences
// (deliveries to processes that are dead at receipt time).
//
// The enumeration is exposed as a resumable iterator: All yields every
// canonical adversary paired with its offset in the deterministic order,
// and From(offset) resumes mid-stream, so unbounded sweeps can checkpoint
// with nothing but an integer.
//
// Within each failure pattern's block the input vectors follow a
// reflected Gray code over Values (delta order): consecutive adversaries
// differ in exactly one process's initial value. DeltaOrder and DeltaRange
// expose the changed index alongside each adversary so incremental
// consumers (knowledge-graph patch kernels) can rewrite only the state
// that depends on the flipped input; the offset→adversary decode is
// shared with From/Range, so delta traversals checkpoint and tile
// identically to the canonical ones.
//
// Every traversal is a Cursor and a Walker. The Cursor walks and dedups
// the failure patterns once and cuts the offsets into Windows, each
// inside one pattern block; the Walker decodes a window's Gray code and
// carves its adversaries. A sharded sweep shares one Cursor under a lock
// and gives each worker its own Walker, so workers enumerate the windows
// they claim in parallel.
package enum

import (
	"fmt"
	"iter"
	"math"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// Space bounds an exhaustive adversary enumeration.
type Space struct {
	N        int           // number of processes
	T        int           // maximum number of crashes
	MaxRound int           // crash rounds range over 1..MaxRound
	Values   []model.Value // every input vector over this set is produced
}

// Validate sanity-checks the space.
func (s Space) Validate() error {
	if s.N < 2 || s.T < 0 || s.T > s.N-1 || s.MaxRound < 1 || len(s.Values) == 0 {
		return fmt.Errorf("enum: invalid space %+v", s)
	}
	return nil
}

// Label renders the space's canonical display name, shared by workload
// sources and analysis reports.
func (s Space) Label() string {
	return fmt.Sprintf("space:n=%d,t=%d,r=%d,|v|=%d", s.N, s.T, s.MaxRound, len(s.Values))
}

// CountUpperBound returns a loose upper bound on the number of adversaries
// the space can yield before canonical deduplication (input vectors ×
// failure patterns). It guards tests against accidentally huge spaces.
func (s Space) CountUpperBound() float64 {
	perCrasher := float64(s.MaxRound) * math.Pow(2, float64(s.N-1))
	patterns := 1.0
	choose := 1.0
	for size := 1; size <= s.T; size++ {
		choose = choose * float64(s.N-size+1) / float64(size)
		patterns += choose * math.Pow(perCrasher, float64(size))
	}
	return patterns * math.Pow(float64(len(s.Values)), float64(s.N))
}

// inputCount returns the number of input vectors, len(Values)^N.
func (s Space) inputCount() int {
	c := 1
	for i := 0; i < s.N; i++ {
		c *= len(s.Values)
	}
	return c
}

// All returns a deterministic iterator over every canonically distinct
// adversary in the space, paired with its offset in the enumeration
// order. Two adversaries are canonically identical when they differ only
// in crash-round deliveries to processes that are already dead at receipt
// time (such deliveries are unobservable: dead processes never read).
//
// The walk never materializes adversaries, but canonical deduplication
// retains one key per distinct failure pattern seen — the compact binary
// fingerprint of FailurePattern.AppendFingerprint, built in a reused
// buffer, not a rendered string — so a full pass holds O(#patterns)
// memory, a factor len(Values)^N below the adversary count, never
// proportional to it. Duplicate patterns are rejected on the raw
// fingerprint alone: the canonical pattern is only materialized for
// patterns that survive deduplication.
//
// The iterator requires a valid space; an invalid one yields nothing —
// callers that need the error use Validate or ForEach.
func (s Space) All() iter.Seq2[int, *model.Adversary] { return s.From(0) }

// advSlabSize is how many adversaries share one Inputs/struct slab in
// the enumeration: big enough to amortize allocation to noise, small
// enough that a consumer retaining one adversary pins only a sliver.
const advSlabSize = 64

// advSlab carves adversaries out of block allocations so the
// enumeration costs two allocations per advSlabSize adversaries instead
// of two per adversary. Carved adversaries are independent values; the
// slab is only the backing memory.
type advSlab struct {
	advs   []model.Adversary
	inputs []model.Value
}

func (sl *advSlab) carve(inputs []model.Value, pattern *model.FailurePattern) *model.Adversary {
	n := len(inputs)
	if len(sl.advs) == 0 {
		sl.advs = make([]model.Adversary, advSlabSize)
	}
	if len(sl.inputs) < n {
		sl.inputs = make([]model.Value, n*advSlabSize)
	}
	in := sl.inputs[:n:n]
	sl.inputs = sl.inputs[n:]
	copy(in, inputs)
	adv := &sl.advs[0]
	sl.advs = sl.advs[1:]
	adv.Inputs, adv.Pattern = in, pattern
	return adv
}

// From resumes the enumeration of All at the given offset: it yields the
// suffix beginning with the offset-th canonical adversary, with the same
// offsets All would have paired them with. Recording the last offset seen
// plus one is therefore enough state to pause and resume an unbounded
// sweep. Whole failure-pattern blocks before the offset are skipped
// without enumerating their input vectors (each canonical pattern spans
// len(Values)^N consecutive offsets); partially consumed blocks re-enter
// the input Gray code directly at the right vector.
func (s Space) From(offset int) iter.Seq2[int, *model.Adversary] {
	return func(yield func(int, *model.Adversary) bool) {
		s.deltaFrom(offset, math.MaxInt, func(idx int, adv *model.Adversary, _ int) bool {
			return yield(idx, adv)
		})
	}
}

// Delta pairs an adversary with the index of the process whose initial
// value changed relative to the previous adversary of the same traversal.
// Changed is -1 when no single-input relationship holds: at the first
// adversary yielded (including mid-block resume entry points) and at every
// pattern-block boundary, where the failure pattern itself changes.
type Delta struct {
	Adv     *model.Adversary
	Changed int
}

// DeltaOrder resumes the enumeration of All at the given offset exactly
// as From does — same adversaries, same offsets — but additionally
// reports, for each adversary, which process's input changed since the
// previous one. Within a pattern block consecutive adversaries differ in
// exactly one process's initial value (the input vectors follow a
// reflected Gray code over Values), so incremental consumers can patch
// per-process state instead of rebuilding it; Changed = -1 marks the
// points where they must rebuild from scratch.
func (s Space) DeltaOrder(offset int) iter.Seq2[int, Delta] {
	return func(yield func(int, Delta) bool) {
		s.deltaFrom(offset, math.MaxInt, func(idx int, adv *model.Adversary, changed int) bool {
			return yield(idx, Delta{Adv: adv, Changed: changed})
		})
	}
}

// DeltaRange yields the window [offset, offset+limit) of DeltaOrder, the
// delta-annotated analogue of Range: the same adversaries at the same
// offsets, with the first adversary of the window marked Changed = -1.
// Consecutive DeltaRange windows therefore tile the space byte-identically
// to Range windows while letting workers patch within each window.
func (s Space) DeltaRange(offset, limit int) iter.Seq2[int, Delta] {
	return func(yield func(int, Delta) bool) {
		if limit <= 0 {
			return
		}
		s.deltaFrom(offset, WindowEnd(offset, limit), func(idx int, adv *model.Adversary, changed int) bool {
			return yield(idx, Delta{Adv: adv, Changed: changed})
		})
	}
}

// Range yields the window [offset, offset+limit) of the enumeration of
// All: at most limit canonical adversaries beginning at the offset-th,
// paired with the same offsets All would have paired them with. It is
// the unit of work of sharded sweeps — a coordinator carves a space
// into consecutive Range windows and hands each to a worker, and the
// windows tile the space exactly: concatenating Range(0, c), Range(c, c),
// ... reproduces All. A window past the end of the space yields nothing;
// a non-positive limit yields nothing.
func (s Space) Range(offset, limit int) iter.Seq2[int, *model.Adversary] {
	return func(yield func(int, *model.Adversary) bool) {
		if limit <= 0 {
			return
		}
		s.deltaFrom(offset, WindowEnd(offset, limit), func(idx int, adv *model.Adversary, _ int) bool {
			return yield(idx, adv)
		})
	}
}

// WindowEnd is the end offset+limit of the window [offset, offset+limit)
// for non-negative operands, saturating at math.MaxInt instead of
// overflowing.
func WindowEnd(offset, limit int) int {
	if offset > math.MaxInt-limit {
		return math.MaxInt
	}
	return offset + limit
}

// deltaFrom is the shared core of From, Range, DeltaOrder, and
// DeltaRange: the canonical walk over the offsets [from, to), annotated
// with the changed process index (-1 at block starts and at the entry
// point). It is a Cursor cut into whole-block Windows and one Walker
// enumerating them.
func (s Space) deltaFrom(from, to int, yield func(int, *model.Adversary, int) bool) {
	c := NewCursor(s, from, to)
	var w Walker
	for {
		win, ok := c.Next(0)
		if !ok || !w.walk(win, yield) {
			return
		}
	}
}

// PatternBlock returns the number of consecutive offsets each canonical
// failure pattern spans in the enumeration order: len(Values)^N. Sharded
// consumers align chunk boundaries to multiples of it so that within a
// chunk every adversary after the first differs from its predecessor in a
// single input value.
func (s Space) PatternBlock() int {
	if s.Validate() != nil {
		return 1
	}
	return s.inputCount()
}

// ForEach calls fn for every canonically distinct adversary in the space,
// in the deterministic order of All, until fn returns false.
func (s Space) ForEach(fn func(*model.Adversary) bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, adv := range s.All() {
		if !fn(adv) {
			break
		}
	}
	return nil
}

// Adversaries materializes the space. Intended for spaces known small.
func (s Space) Adversaries() ([]*model.Adversary, error) {
	var out []*model.Adversary
	err := s.ForEach(func(a *model.Adversary) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// Window is a run of consecutive adversaries of a space's enumeration
// that lies inside one failure-pattern block: the unit a Cursor cuts and
// a Walker enumerates. A sharded sweep cuts windows under its claim lock
// and lets each worker enumerate the windows it claimed.
type Window struct {
	Base    int                   // offset of the window's first adversary
	Len     int                   // number of adversaries
	Pattern *model.FailurePattern // the block's canonical pattern, shared by every window of the block

	start  int // index of the first input vector within the block
	values []model.Value
}

// Cursor cuts the offsets [from, to) of a space's enumeration into
// Windows. It walks and deduplicates the failure patterns once, in
// order, and materializes each surviving block's canonical pattern once,
// however many windows the block is cut into; whole blocks before from
// are skipped without a Canonical call. A Cursor is not safe for
// concurrent use: sharded consumers call Next under a lock and enumerate
// the windows outside it.
type Cursor struct {
	s         Space
	block     int
	next, end int // the offsets still to hand out: [next, end)
	found     int // offset one past the last canonical block discovered
	pat       *model.FailurePattern
	patBase   int // offset of pat's block
	patterns  patternWalk
	seen      map[string]struct{}
	key       []byte
	done      bool
}

// NewCursor returns a cursor over the offsets [from, to) of the
// enumeration of All; to may be math.MaxInt for the rest of the space.
// An invalid space or a negative from yields no windows.
func NewCursor(s Space, from, to int) *Cursor {
	c := &Cursor{s: s, next: from, end: to}
	if s.Validate() != nil || from < 0 {
		c.done = true
		return c
	}
	c.block = s.inputCount()
	c.seen = make(map[string]struct{})
	c.key = make([]byte, 0, 64)
	c.patterns.s = s
	return c
}

// Next cuts the next window: the rest of the current pattern block, ended
// early at the cursor's end and, when max > 0, at the next block-relative
// multiple of max — so a block larger than max is cut into aligned slices
// of at most max adversaries, and every window lies inside one block.
// ok is false once the range is exhausted.
func (c *Cursor) Next(max int) (w Window, ok bool) {
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

// advance walks the failure patterns to the next canonical block that
// ends past c.next and materializes its canonical pattern. Dedup runs on
// the raw pattern's binary fingerprint: it strips unobservable
// deliveries during encoding, so it equals the canonical pattern's
// fingerprint without building it. The walk hands over the crasher
// subset already sorted, so the fingerprint skips its
// map-collect-and-sort prologue.
func (c *Cursor) advance() bool {
	for c.patterns.next() {
		c.key = c.patterns.fp.AppendFingerprintSorted(c.key[:0], c.patterns.crashers)
		if _, dup := c.seen[string(c.key)]; dup {
			continue
		}
		c.seen[string(c.key)] = struct{}{}
		base := c.found
		c.found += c.block
		if c.found <= c.next {
			continue // fast-skip: the whole block precedes the next offset
		}
		c.pat, c.patBase = c.patterns.fp.Canonical(), base
		return true
	}
	return false
}

// patternWalk enumerates a space's raw failure patterns: every subset of
// at most T crashers in lexicographic pre-order ({}, {0}, {0,1}, ...,
// {1}, ...), and for each subset every assignment of crash rounds
// 1..MaxRound and delivery subsets, round-major, with the last crasher's
// assignment varying fastest. It is an odometer rather than a recursion
// so a Cursor can stop after any pattern and resume at its next claim.
// The pattern is mutated in place between steps — its delivery sets
// included — so callers must not retain it (dedup survivors materialize a
// Canonical copy).
type patternWalk struct {
	s        Space
	fp       *model.FailurePattern
	crashers []model.Proc // the current subset, increasing
	configs  int          // assignments per crasher: MaxRound × 2^(N−1)
	config   []int        // per crasher: (round−1)·2^(N−1) + delivery mask
	sets     []*bitset.Set
}

// next steps to the next raw pattern; false after the last. The first
// step yields the failure-free pattern.
func (w *patternWalk) next() bool {
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

// nextSubset moves to the next crasher subset in pre-order: the first
// child (append the successor of the largest crasher) while the subset
// is below T, else the next sibling of the nearest ancestor that has one.
func (w *patternWalk) nextSubset() bool {
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

func (w *patternWalk) push(p model.Proc) {
	w.crashers = append(w.crashers, p)
	if len(w.config) < len(w.crashers) {
		w.config = append(w.config, 0)
		w.sets = append(w.sets, bitset.New(w.s.N))
	}
}

// assign writes crasher i's crash from its assignment index: the round,
// and the delivery subset of the other N−1 processes as a mask.
func (w *patternWalk) assign(i int) {
	p := w.crashers[i]
	half := 1 << uint(w.s.N-1)
	round, mask := w.config[i]/half+1, w.config[i]%half
	d := w.sets[i]
	// Spreading the mask around a zero bit at p maps mask bit b to
	// process b for b < p and to b+1 past it, as one word operation when
	// the set is single-word.
	if dw := d.Words(); len(dw) == 1 {
		low := uint64(mask) & (1<<uint(p) - 1)
		dw[0] = low | uint64(mask)>>uint(p)<<uint(p+1)
	} else {
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
	}
	w.fp.Crashes[p] = model.Crash{Round: round, Delivered: d}
}

// Walker enumerates Windows: it decodes the reflected Gray code over the
// input vectors and carves each adversary from a slab. Its scratch
// survives from window to window, so a worker enumerating window after
// window allocates only the adversaries themselves. The zero Walker is
// ready to use; a Walker is not safe for concurrent use.
//
// The input vectors of a block follow the reflected mixed-radix Gray code
// over base len(Values) with process 0 as the most significant digit:
// consecutive vectors differ in exactly one digit, by one position up or
// down Values. The vector at index i is decoded directly from the plain
// base-b expansion a[0..N-1] of i: scanning most-significant first with a
// reflection flag that starts clear, digit j is a[j] (flag clear) or
// b-1-a[j] (flag set), and the flag toggles whenever the decoded digit is
// odd — an odd digit at level j means the levels below run through their
// sub-sequence reversed. Entering a window mid-block therefore costs
// O(N), and the flag at each level is the digit's current sweep
// direction.
type Walker struct {
	digits, dirs []int
	inputs       []model.Value
	values       []model.Value
	slab         advSlab
}

// Append appends the window's adversaries to dst in enumeration order.
func (w *Walker) Append(dst []*model.Adversary, win Window) []*model.Adversary {
	w.walk(win, func(_ int, adv *model.Adversary, _ int) bool {
		dst = append(dst, adv)
		return true
	})
	return dst
}

// walk yields the window's adversaries with their offsets and the index
// of the process whose input changed since the previous one (-1 for the
// window's first). It returns false when yield stopped the walk.
func (w *Walker) walk(win Window, yield func(int, *model.Adversary, int) bool) bool {
	if win.Len <= 0 {
		return true
	}
	w.seek(win)
	changed := -1
	for i := 0; ; {
		if !yield(win.Base+i, w.slab.carve(w.inputs, win.Pattern), changed) {
			return false
		}
		if i++; i == win.Len {
			return true
		}
		changed = w.step()
	}
}

// seek decodes the window's first input vector and the sweep direction
// of every digit.
func (w *Walker) seek(win Window) {
	n, base := win.Pattern.N, len(win.values)
	if len(w.digits) != n {
		w.digits, w.dirs, w.inputs = make([]int, n), make([]int, n), make([]model.Value, n)
	}
	w.values = win.values
	for i, rem := n-1, win.start; i >= 0; i-- {
		w.digits[i] = rem % base
		rem /= base
	}
	flip := false
	for j := 0; j < n; j++ {
		if flip {
			w.digits[j] = base - 1 - w.digits[j]
			w.dirs[j] = -1
		} else {
			w.dirs[j] = 1
		}
		if w.digits[j]&1 == 1 {
			flip = !flip
		}
		w.inputs[j] = w.values[w.digits[j]]
	}
}

// step moves to the next input vector of the block: the least
// significant digit that can advance in its current direction moves, and
// the digits below it, which cannot, reverse direction. Exactly one digit
// changes; step returns its process index, or -1 past the block's last
// vector.
func (w *Walker) step() int {
	for j := len(w.digits) - 1; j >= 0; j-- {
		if next := w.digits[j] + w.dirs[j]; next >= 0 && next < len(w.values) {
			w.digits[j] = next
			w.inputs[j] = w.values[next]
			return j
		}
		w.dirs[j] = -w.dirs[j]
	}
	return -1
}
