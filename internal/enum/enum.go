// Package enum enumerates adversaries exhaustively for small systems.
// The unbeatability and conformance experiments quantify over "all runs";
// for small (n, t, rounds, values) the adversary space is finite and this
// package walks all of it, one adversary per observably distinct run. A
// crash-round delivery to the crasher itself, or to a receiver that
// crashes in the same or an earlier round, is never read, so the walk
// generates only the canonical failure patterns: those whose unobservable
// delivery bits are all clear.
//
// The enumeration is indexable: Space.Count is its exact length, in
// closed form, All pairs every canonical adversary with its offset in
// the deterministic order, and From(offset) resumes mid-stream by
// unranking the offset, at a cost independent of it. Sweeps checkpoint
// with nothing but an integer, and a coordinator knows the end of a
// space before it hands out a range.
//
// Within each failure pattern's block the input vectors follow a
// reflected Gray code over Values (delta order): consecutive adversaries
// differ in exactly one process's initial value, so incremental
// consumers (the knowledge-graph patch kernels) that diff each
// adversary's inputs against the previous one's rewrite only the state
// that depends on the flipped input.
//
// Every traversal is a Cursor and a Walker. The Cursor unranks the first
// block's canonical failure pattern, steps from pattern to pattern and
// cuts the offsets into Windows, each inside one pattern block; the
// Walker decodes a window's Gray code and carves its adversaries. A
// sharded sweep shares one Cursor under a lock and gives each worker its
// own Walker, so workers enumerate the windows they claim in parallel.
//
// The adversaries of All, From, Range and Walker.Append are independent
// values a consumer may keep. Walker.AppendReused carves them instead
// from one arena the walker keeps and overwrites with the next window,
// for consumers that fold each adversary and drop it: such a consumer
// must not hold an adversary past the next window — a copy of its
// inputs is fine — and may still key on the window's failure pattern by
// pointer, because patterns are never reused.
package enum

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

	"setconsensus/internal/model"
)

// Space bounds an exhaustive adversary enumeration.
type Space struct {
	N        int           // number of processes
	T        int           // maximum number of crashes
	MaxRound int           // crash rounds range over 1..MaxRound
	Values   []model.Value // every input vector over this set is produced
}

// Validate sanity-checks the space: at least two processes, 0 ≤ T ≤ N−1,
// MaxRound ≥ 1, at least one value, every value in
// 0..model.ValueLimit−1, and a Count that fits an int. Every adversary
// of a valid space is valid (model.Adversary.Validate), so a consumer of
// its enumeration need not check them one by one.
func (s Space) Validate() error {
	_, _, _, err := s.size()
	return err
}

// Count returns the exact number of canonical adversaries in the space —
// the length of All — computed in closed form, without enumerating; 0
// for an invalid space.
func (s Space) Count() int {
	n, _, _, _ := s.size()
	return n
}

// Label renders the space's canonical display name, shared by workload
// sources and analysis reports.
func (s Space) Label() string {
	return fmt.Sprintf("space:n=%d,t=%d,r=%d,|v|=%d", s.N, s.T, s.MaxRound, len(s.Values))
}

// size validates the space and counts it: len(Values)^N input vectors
// per canonical pattern, and Σ_m C(N, m)·perSet[m] patterns, perSet and
// w being setPatterns'. Every factor and partial sum counts adversaries
// of the space, so an overflow anywhere means the count does not fit an
// int.
func (s Space) size() (n int, perSet []int, w [][]int, err error) {
	if s.N < 2 || s.T < 0 || s.T > s.N-1 || s.MaxRound < 1 || len(s.Values) == 0 {
		return 0, nil, nil, fmt.Errorf("enum: invalid space (n=%d t=%d r=%d |v|=%d)", s.N, s.T, s.MaxRound, len(s.Values))
	}
	for _, v := range s.Values {
		if v < 0 || v >= model.ValueLimit {
			return 0, nil, nil, fmt.Errorf("enum: %s value %d outside 0..%d", s.Label(), v, model.ValueLimit-1)
		}
	}
	var a arith
	perSet, w = s.setPatterns(&a)
	patterns := 0
	for m := 0; m <= s.T && !a.overflow; m++ {
		patterns = a.add(patterns, a.mul(a.binom(s.N, m), perSet[m]))
	}
	if n = a.mul(patterns, a.pow(len(s.Values), s.N)); !a.overflow {
		return n, perSet, w, nil
	}
	return 0, nil, nil, fmt.Errorf("enum: %s holds more adversaries than an int counts", s.Label())
}

// setPatterns returns, for each crasher-set size m ≤ T, the number of
// canonical failure patterns of one crasher set of that size. A crasher
// p delivers to any subset of the live(p) other processes that read its
// crash-round message — those outside the set or crashing in a later
// round — so a crash-round assignment ρ holds ∏_p 2^live(p) patterns:
// 2^(m(N−m)) for the receivers outside the set, times one bit per pair
// of crashers in different rounds, from the earlier to the later. An
// assignment using b distinct rounds is an ordered partition of the set
// into b blocks, placed in C(MaxRound, b) ways, so
//
//	setPatterns[m] = 2^(m(N−m)) · spread(w[m], MaxRound),
//
// where w[m][b] sums 2^(pairs in different blocks) over the ordered
// partitions of m crashers into b blocks; choosing the first block's j
// members, w(m, b) = Σ_j C(m, j)·2^(j(m−j))·w(m−j, b−1). The slices are
// short when a count overflows, which a flags.
func (s Space) setPatterns(a *arith) (perSet []int, w [][]int) {
	perSet, w = []int{1}, [][]int{{1}} // w[m][b] for b ≤ min(m, MaxRound)
	for m := 1; m <= s.T && !a.overflow; m++ {
		row := make([]int, min(m, s.MaxRound)+1)
		for b := 1; b < len(row); b++ {
			for j := 1; j <= m-b+1; j++ {
				// A zero term is skipped: its factors may overflow alone.
				if rest := w[m-j]; b-1 < len(rest) && rest[b-1] > 0 {
					row[b] = a.add(row[b], a.mul(a.mul(a.binom(m, j), a.pow(2, j*(m-j))), rest[b-1]))
				}
			}
		}
		w = append(w, row)
		perSet = append(perSet, a.mul(a.pow(2, m*(s.N-m)), spread(a, row, s.MaxRound)))
	}
	return perSet, w
}

// spread returns Σ_b C(rounds, b)·w[m][b] for row = w[m]: the crash
// rounds m crashers can take among that many consecutive rounds, each
// assignment weighted by its pairs of crashers in different rounds.
func spread(a *arith, row []int, rounds int) int {
	n := 0
	for b := 1; b < len(row) && b <= rounds; b++ {
		n = a.add(n, a.mul(a.binom(rounds, b), row[b]))
	}
	return n
}

// arith is overflow-checked arithmetic on non-negative ints: an
// operation whose exact result does not fit an int sets overflow, which
// stays set, and returns a meaningless value.
type arith struct{ overflow bool }

func (a *arith) add(x, y int) int {
	if x > math.MaxInt-y {
		a.overflow = true
	}
	return x + y
}

func (a *arith) mul(x, y int) int {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	if hi != 0 || lo > math.MaxInt {
		a.overflow = true
	}
	return int(lo)
}

// pow returns b^e; it stops multiplying once the product overflows.
func (a *arith) pow(b, e int) int {
	p := 1
	for ; e > 0 && b != 1 && !a.overflow; e-- {
		p = a.mul(p, b)
	}
	return p
}

// binom returns the binomial coefficient C(n, k).
func (a *arith) binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	k = min(k, n-k)
	c := 1
	for i := 1; i <= k && !a.overflow; i++ {
		// c = C(n−k+i−1, i−1), so c·(n−k+i) divides exactly by i.
		hi, lo := bits.Mul64(uint64(c), uint64(n-k+i))
		if a.overflow = hi >= uint64(i); !a.overflow {
			q, _ := bits.Div64(hi, lo, uint64(i))
			c, a.overflow = int(q), q > math.MaxInt
		}
	}
	return c
}

// inputCount returns the number of input vectors of a valid space,
// len(Values)^N: the length of each pattern's block.
func (s Space) inputCount() int {
	var a arith
	return a.pow(len(s.Values), s.N)
}

// All returns a deterministic iterator over every canonically distinct
// adversary in the space, paired with its offset in the enumeration
// order. Two adversaries are canonically identical when they differ only
// in crash-round deliveries that no process reads — to the crasher
// itself, or to a receiver that is already dead at receipt time.
//
// The walk generates the canonical failure patterns directly and never
// materializes adversaries beyond the ones it yields: a full pass holds
// O(N) state, however large the space.
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
// sweep. The offset's failure pattern is found by unranking, without
// walking the patterns before it (each canonical pattern spans
// len(Values)^N consecutive offsets), and a partially consumed block
// re-enters the input Gray code directly at the right vector.
func (s Space) From(offset int) iter.Seq2[int, *model.Adversary] {
	return func(yield func(int, *model.Adversary) bool) {
		s.walkOffsets(offset, math.MaxInt, yield)
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
		s.walkOffsets(offset, WindowEnd(offset, limit), yield)
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

// walkOffsets is the shared core of From and Range: the canonical walk
// over the offsets [from, to). It is a Cursor cut into whole-block
// Windows and one Walker enumerating them.
func (s Space) walkOffsets(from, to int, yield func(int, *model.Adversary) bool) {
	c := NewCursor(s, from, to)
	var w Walker
	for {
		win, ok := c.Next(0)
		if !ok || !w.walk(win, &w.slab, yield) {
			return
		}
	}
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
// Windows. It unranks the first block's canonical failure pattern and
// then steps from each pattern to the next, so entering a range costs
// the same at any offset, every further block costs O(T²) steps however
// large MaxRound is, and each block's pattern is materialized once
// however many windows the block is cut into. The patterns are carved
// from a model.PatternSlab whose blocks the cursor sizes to the pattern
// blocks left in its range, so a short range pays for no more. A Cursor
// is not safe for concurrent use: sharded consumers call Next under a
// lock and enumerate the windows outside it.
type Cursor struct {
	s         Space
	block     int
	next, end int // the offsets still to hand out: [next, end)
	pat       *model.FailurePattern
	patBase   int // offset of pat's block
	patterns  unranker
	slab      model.PatternSlab
}

// NewCursor returns a cursor over the offsets [from, to) of the
// enumeration of All; to may be math.MaxInt for the rest of the space.
// An invalid space or a negative from yields no windows.
func NewCursor(s Space, from, to int) *Cursor {
	count, perSet, w, err := s.size()
	if err != nil || from < 0 {
		return &Cursor{}
	}
	u := unranker{s: s, perSet: perSet, w: w, cls: make([]int, s.T)}
	return &Cursor{s: s, block: s.inputCount(), next: from, end: min(to, count), patterns: u}
}

// Next cuts the next window: the rest of the current pattern block, ended
// early at the cursor's end and, when max > 0, at the next block-relative
// multiple of max — so a block larger than max is cut into aligned slices
// of at most max adversaries, and every window lies inside one block.
// ok is false once the range is exhausted.
func (c *Cursor) Next(max int) (w Window, ok bool) {
	if c.next >= c.end {
		return Window{}, false
	}
	if c.pat == nil || c.next == c.patBase+c.block {
		more := false
		if c.pat == nil {
			c.patBase = c.next - c.next%c.block
			more = c.patterns.unrank(c.patBase / c.block)
		} else {
			c.patBase += c.block
			more = c.patterns.next()
		}
		if !more {
			c.end = c.next
			return Window{}, false
		}
		// The blocks the range still reaches, this one included, bound
		// how many more patterns the cursor carves.
		left := (c.end-c.patBase-1)/c.block + 1
		c.pat = c.patterns.pattern(&c.slab, min(left, advSlabSize))
	}
	lo, hi := c.next, min(c.patBase+c.block, c.end)
	if max > 0 {
		hi = min(hi, c.patBase+((lo-c.patBase)/max+1)*max)
	}
	c.next = hi
	return Window{Base: lo, Len: hi - lo, Pattern: c.pat, start: lo - c.patBase, values: c.s.Values}, true
}

// unranker walks a space's canonical failure patterns in enumeration
// order — every set of at most T crashers in lexicographic pre-order ({},
// {0}, {0,1}, ..., {1}, ...), and for each set every canonical
// assignment of crash rounds 1..MaxRound and delivery masks, crasher by
// crasher, round before mask, the last crasher's varying fastest — and
// finds any of them by its index. That is the order of the raw walk over
// every delivery subset restricted to the patterns whose unobservable
// bits are clear: the raw walk counts each mask upward, so a canonical
// pattern is the first of its observably equal raw patterns to appear.
//
// A crasher's mask holds one bit per other process (bit b for process b
// below the crasher, b+1 above it). A bit toward another crasher is
// observable only when that crasher crashes in a later round: toward an
// earlier crasher of the set it is allowed or not by the rounds already
// chosen, and toward a later one it forces that crasher's round above
// the holder's.
type unranker struct {
	s        Space
	perSet   []int        // per crasher-set size: one set's patterns (setPatterns)
	w        [][]int      // setPatterns' weights
	crashers []model.Proc // the current crasher set, increasing
	rounds   []int        // per crasher: its crash round
	masks    []uint64     // per crasher: its delivery mask

	cuts, cls []int // completions' scratch: the cut rounds, per crasher its class
}

// unrank moves to the k-th canonical failure pattern and reports
// whether the space holds one. The crasher set is found by skipping
// whole subtrees of the pre-order, each sized in closed form; then each
// crasher's round by bisection and its mask bit by bit from the
// highest, by counting the completions of every candidate prefix. The
// cost depends on N, T and log MaxRound, never on k.
func (u *unranker) unrank(k int) bool {
	s := u.s
	var a arith
	u.crashers, u.rounds, u.masks = u.crashers[:0], u.rounds[:0], u.masks[:0]
	for next := 0; k >= u.perSet[len(u.crashers)]; {
		k -= u.perSet[len(u.crashers)]
		p := next
		for ; len(u.crashers) < s.T && p < s.N; p++ {
			// The patterns of the set extended by p, and of its extensions
			// by larger crashers.
			n := 0
			for j, m := 0, len(u.crashers)+1; m+j <= s.T; j++ {
				n += a.binom(s.N-1-p, j) * u.perSet[m+j]
			}
			if k < n {
				break
			}
			k -= n
		}
		if len(u.crashers) == s.T || p == s.N {
			return false
		}
		u.crashers, u.rounds, u.masks = append(u.crashers, p), append(u.rounds, 0), append(u.masks, 0)
		next = p + 1
	}
	for i := range u.crashers {
		// The first round r with more than k patterns crashing crasher i
		// no later than r.
		first := u.bound(i, i) + 1
		lo, hi := first, s.MaxRound
		for lo < hi {
			if mid := lo + (hi-lo)/2; u.completions(i, mid, 0) > k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo > first {
			k -= u.completions(i, lo-1, 0)
		}
		u.rounds[i], u.masks[i] = lo, 0
		allowed := u.allowed(i, lo)
		for b := bits.Len64(allowed); b > 0; b-- {
			// Masks below the candidate in numeric order are those with
			// this bit clear.
			bit := uint64(1) << uint(b-1)
			if allowed&bit == 0 {
				continue
			}
			if n := u.completions(i+1, s.MaxRound, allowed&(bit-1)); k >= n {
				k -= n
				u.masks[i] |= bit
			}
		}
	}
	return true
}

// next moves to the canonical pattern after the current one and reports
// whether there is one: the last crasher's next allowed mask, else its
// next round, else the same for the crasher before it; past the set's
// last pattern, the next crasher set in pre-order. Every crasher after
// the one that moved takes its first choice: the round after the latest
// crasher that delivers to it — which exists, as a crasher delivers to a
// later one only before the last round (allowed) — and no deliveries.
func (u *unranker) next() bool {
	i := len(u.crashers) - 1
	for ; i >= 0; i-- {
		// The next submask of the allowed bits, 0 after the last.
		a := u.allowed(i, u.rounds[i])
		if m := ((u.masks[i] | ^a) + 1) & a; m != 0 {
			u.masks[i] = m
			break
		}
		if u.rounds[i] < u.s.MaxRound {
			u.rounds[i], u.masks[i] = u.rounds[i]+1, 0
			break
		}
	}
	if i < 0 {
		p := 0
		if n := len(u.crashers); n > 0 {
			p = u.crashers[n-1] + 1
		}
		for len(u.crashers) == u.s.T || p == u.s.N {
			// Back up to the deepest crasher with a next sibling.
			n := len(u.crashers)
			if n == 0 {
				return false
			}
			p = u.crashers[n-1] + 1
			u.crashers, u.rounds, u.masks = u.crashers[:n-1], u.rounds[:n-1], u.masks[:n-1]
		}
		u.crashers, u.rounds, u.masks = append(u.crashers, p), append(u.rounds, 0), append(u.masks, 0)
	}
	for l := i + 1; l < len(u.crashers); l++ {
		u.rounds[l], u.masks[l] = u.bound(l, l)+1, 0
	}
	return true
}

// pattern carves the current canonical failure pattern from slab, the
// crashers' delivery sets with it, sizing any fresh block for ahead more
// patterns. The crashers are increasing, so each SetCrash appends.
func (u *unranker) pattern(slab *model.PatternSlab, ahead int) *model.FailurePattern {
	k := len(u.crashers)
	fp := slab.Pattern(u.s.N, k, ahead)
	for i, p := range u.crashers {
		// A space with a crasher has N ≤ 64 (its count fits an int), so a
		// delivery set is one word. Spreading the mask around a zero bit
		// at p maps mask bit b to process b for b < p and to b+1 past it.
		d := slab.Set(u.s.N, k*ahead)
		m := u.masks[i]
		d.Words()[0] = m&(1<<uint(p)-1) | m>>uint(p)<<uint(p+1)
		fp.SetCrash(model.Crash{Proc: p, Round: u.rounds[i], Delivered: d})
	}
	return fp
}

// bit returns the bit of crasher j's process in crasher i's mask.
func (u *unranker) bit(i, j int) uint64 {
	q := u.crashers[j]
	if j > i {
		q-- // the mask skips crasher i's own process
	}
	return 1 << uint(q)
}

// bound returns the round crasher l must crash after: the latest round
// of a crasher k < j whose mask delivers to it, or 0 when none does.
func (u *unranker) bound(l, j int) int {
	b := 0
	for k := 0; k < j; k++ {
		if u.masks[k]&u.bit(k, l) != 0 {
			b = max(b, u.rounds[k])
		}
	}
	return b
}

// allowed returns the mask bits crasher i may set when crashing in
// round r: not toward an earlier crasher that is dead by round r, and
// not toward a later crasher when r is the last round, since that
// crasher would have to crash after it.
func (u *unranker) allowed(i, r int) uint64 {
	a := uint64(1)<<uint(u.s.N-1) - 1
	for k := range u.crashers {
		if k < i && u.rounds[k] <= r || k > i && r == u.s.MaxRound {
			a &^= u.bit(i, k)
		}
	}
	return a
}

// completions counts the canonical patterns of the current crasher set
// that keep crashers 0..j−1 as they are — except that crasher j−1's mask
// may also hold any of the bits of free — and crash crasher j no later
// than round hi. It sums over where the other crashers' rounds fall
// relative to the kept ones, never over the rounds themselves: the kept
// rounds and round hi+1 are the cuts, and a class is a cut or the gap of
// rounds between two (completions' cost depends on N and T, never on
// MaxRound).
func (u *unranker) completions(j, hi int, free uint64) int {
	u.cuts = append(u.cuts[:0], u.rounds[:j]...)
	if hi < u.s.MaxRound {
		u.cuts = append(u.cuts, hi+1)
	}
	slices.Sort(u.cuts)
	u.cuts = slices.Compact(u.cuts)
	for k := range j {
		u.cls[k] = u.class(u.rounds[k])
	}
	return u.place(j, j, hi, free)
}

// class returns the class of the cut r: class 2g+1 is cuts[g] and class
// 2g the gap of rounds below it, after cuts[g−1]; class 2·len(cuts) is
// the gap after the last cut.
func (u *unranker) class(r int) int {
	g, _ := slices.BinarySearch(u.cuts, r)
	return 2*g + 1
}

// gap returns the number of rounds in the gap of class 2g.
func (u *unranker) gap(g int) int {
	lo, hi := 0, u.s.MaxRound
	if g > 0 {
		lo = u.cuts[g-1]
	}
	if g < len(u.cuts) {
		hi = u.cuts[g] - 1
	}
	return hi - lo
}

// place sums the weights of the class assignments of crashers l..: each
// takes a class after every kept crasher that delivers to it, and one
// that holds a round.
func (u *unranker) place(l, j, hi int, free uint64) int {
	if l == len(u.crashers) {
		return u.weight(j, free)
	}
	first, last := 0, 2*len(u.cuts)
	if b := u.bound(l, j); b > 0 {
		first = u.class(b) + 1
	}
	if l == j && hi < u.s.MaxRound {
		last = u.class(hi+1) - 1
	}
	n := 0
	for c := first; c <= last; c++ {
		if u.cls[l] = c; c%2 == 1 || u.gap(c/2) > 0 {
			n += u.place(l+1, j, hi, free)
		}
	}
	return n
}

// weight counts the patterns of one class assignment of crashers j..:
// each one's mask holds a bit per process outside the set and per
// crasher of a later class; crasher j−1's free bits count, one toward a
// later crasher only when that crasher's class is later; and the c
// crashers sharing a gap of L rounds contribute spread(w[c], L) for the
// bits among themselves (free is empty when j is 0). The count is at
// most the space's, so it fits.
func (u *unranker) weight(j int, free uint64) int {
	var a arith
	m, n, live := len(u.crashers), 1, 0
	for l := j; l < m; l++ {
		live += u.s.N - m
		for k := range u.crashers {
			if u.cls[k] > u.cls[l] {
				live++
			}
		}
		if b := u.bit(j-1, l); free&b != 0 {
			if free &^= b; u.cls[l] > u.cls[j-1] {
				live++
			}
		}
	}
	for g := range len(u.cuts) + 1 {
		c := 0
		for l := j; l < m; l++ {
			if u.cls[l] == 2*g {
				c++
			}
		}
		if c > 0 {
			n = a.mul(n, spread(&a, u.w[c], u.gap(g)))
		}
	}
	return n << uint(live+bits.OnesCount64(free))
}

// Walker enumerates Windows: it decodes the reflected Gray code over the
// input vectors and carves each adversary from a slab. Its scratch
// survives from window to window, so a worker enumerating window after
// window allocates only the adversaries themselves (Append), or nothing
// at all when it is done with each window's adversaries before the next
// (AppendReused). The zero Walker is ready to use; a Walker is not safe
// for concurrent use.
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
	arena        advSlab // AppendReused's storage, carved again from its start per window
}

// Append appends the window's adversaries to dst in enumeration order.
// They are carved from fresh slabs: a consumer may keep them.
func (w *Walker) Append(dst []*model.Adversary, win Window) []*model.Adversary {
	return w.appendFrom(dst, win, &w.slab)
}

// AppendReused is Append over one arena the walker keeps: the window's
// adversaries are carved from storage the walker already holds, so a
// worker enumerating window after window allocates nothing per
// adversary once the arena has grown to its largest window. The next
// AppendReused call overwrites them, so a consumer must be done with
// them by then and must keep nothing of them — a copy of what it needs
// to compare against the next window is fine, a pointer is not. Their
// failure pattern is the window's, as with Append: it is never reused.
func (w *Walker) AppendReused(dst []*model.Adversary, win Window) []*model.Adversary {
	if win.Len <= 0 {
		return dst
	}
	if len(w.arena.advs) < win.Len {
		w.arena.advs = make([]model.Adversary, win.Len)
	}
	if n := win.Len * win.Pattern.N; len(w.arena.inputs) < n {
		w.arena.inputs = make([]model.Value, n)
	}
	sl := w.arena
	return w.appendFrom(dst, win, &sl)
}

// appendFrom appends the window's adversaries, carved from slab, to dst.
func (w *Walker) appendFrom(dst []*model.Adversary, win Window, slab *advSlab) []*model.Adversary {
	w.walk(win, slab, func(_ int, adv *model.Adversary) bool {
		dst = append(dst, adv)
		return true
	})
	return dst
}

// walk yields the window's adversaries, carved from slab, with their
// offsets. It returns false when yield stopped the walk.
func (w *Walker) walk(win Window, slab *advSlab, yield func(int, *model.Adversary) bool) bool {
	if win.Len <= 0 {
		return true
	}
	w.seek(win)
	for i := 0; ; {
		if !yield(win.Base+i, slab.carve(w.inputs, win.Pattern)) {
			return false
		}
		if i++; i == win.Len {
			return true
		}
		w.step()
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
// changes; at the block's last vector none can, and the inputs stay.
func (w *Walker) step() {
	for j := len(w.digits) - 1; j >= 0; j-- {
		if next := w.digits[j] + w.dirs[j]; next >= 0 && next < len(w.values) {
			w.digits[j] = next
			w.inputs[j] = w.values[next]
			return
		}
		w.dirs[j] = -w.dirs[j]
	}
}
