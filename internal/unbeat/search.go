package unbeat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"setconsensus/internal/bitset"
	"setconsensus/internal/enum"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// The bounded protocol-space search complements the Lemma-3 certificates:
// over an exhaustively enumerated adversary space, it tries EVERY decision
// rule that follows a base protocol (Optmin[k] or u-Pmin[k]) except for
// deciding strictly earlier at up to `width` distinct local views, with
// any valid value at each. Because full-information protocols are exactly
// functions of the view, such a rule IS a protocol; if it solved the task
// it would strictly dominate the base protocol. The search verifies that
// every candidate violates the task on some run — i.e. the base protocol
// is unbeatable within this (bounded, but for small n meaningful)
// protocol class.
//
// The search is a staged pipeline:
//
//	compile — every run of the space is executed once and flattened into
//	          a compact run table: interned view ids plus the base
//	          protocol's decisions, with run r standing for the space's
//	          r-th adversary (Compiler.Add). Compilers are fragments:
//	          each records the space windows it compiled as segments, and
//	          Merge tiles the fragments back into the table a sequential
//	          compile builds — which is how Engine.Analyze runs the stage
//	          on its sweep executor, one fragment per worker;
//	shard   — deviation candidates are strided across a worker pool in
//	          canonical enumeration order, each worker folding into
//	          private accumulators merged once (the internal/agg
//	          contract);
//	test    — each candidate is simulated against every compiled run in
//	          per-worker scratch (no per-candidate or per-run
//	          allocations); the first dominating candidate in canonical
//	          order short-circuits the remaining work.
//
// Reports are deterministic regardless of parallelism: counters describe
// either the full enumeration (unbeaten) or the canonical prefix ending
// at the minimal dominating candidate (beaten). No run keeps its
// adversary: a witness rebuilds its strict-win adversary from the run's
// offset with Space.From.

// SearchParams configures the deviation search.
type SearchParams struct {
	Space   enum.Space
	K       int
	T       int
	Uniform bool // check uniform agreement (for u-Pmin conjecture probes)
	Width   int  // maximum number of deviating views (1 or 2)
}

// SearchReport summarizes the search outcome. Every field is
// deterministic in the compiled space alone: parallel and sequential
// searches of one space produce identical reports. When Beaten, the
// Candidates/Pairs counters cover the canonical enumeration prefix up to
// and including the minimal dominating candidate (the witness), not
// whatever subset in-flight workers happened to touch.
type SearchReport struct {
	Runs        int      `json:"runs"`       // adversaries enumerated
	Views       int      `json:"views"`      // distinct pre-decision deviation points
	Candidates  int      `json:"candidates"` // deviation sets tested
	Beaten      bool     `json:"beaten"`     // a dominating deviation exists
	Witness     *Witness `json:"witness,omitempty"`
	PairsPruned int      `json:"pairsPruned"` // width-2 pairs eliminated by the locality rule
	PairsTested int      `json:"pairsTested"`
}

// SearchOptions configures the test stage of a compiled search.
type SearchOptions struct {
	// Parallelism is the worker-pool size; values < 1 mean 1.
	Parallelism int
	// Progress, when non-nil, receives throttled stage snapshots. Calls
	// are serialized; the callback must not block for long.
	Progress func(Progress)
}

// runTable holds compiled runs as struct-of-arrays: per process, the
// interned view id at each active time up to the base protocol's
// decision, plus the base decision itself. Row (r, i) — process i of run
// r — is ids[ends[r*n+i]:ends[r*n+i+1]], and every per-process column is
// indexed r*n+i, so a compiled space is a handful of flat arrays whatever
// its size, with nothing per run for the collector to trace.
type runTable struct {
	n, pw   int      // processes per run; words per value set
	ids     []int32  // interned view ids of every row, back to back
	ends    []int32  // row ends in ids; ends[0] = 0
	decTime []int8   // base decision time, −1 if none
	decVal  []int32  // base decision value (meaningful when decTime ≥ 0)
	correct []uint64 // [r] mask of the processes correct in run r
	present []uint64 // [r*pw:(r+1)*pw] values present in run r's input vector
}

func (t *runTable) runs() int { return len(t.correct) }

// row returns the interned view ids of process i in run r.
func (t *runTable) row(r, i int) []int32 {
	k := r*t.n + i
	return t.ids[t.ends[k]:t.ends[k+1]]
}

// segment records that the compiler's runs from start up to the next
// segment's start (or the end of its table) are the space's adversaries
// from offset base on.
type segment struct{ base, start int }

// Compiler is the compile stage of the search pipeline: it folds one
// executed run at a time into its interned view table and run table.
// Feed it with Add, then seal one or more compilers with Merge. A
// Compiler compiles a fragment of the space: Segment marks where in the
// space's enumeration the following Adds sit, so several compilers —
// one per worker of the engine's sweep executor — can each compile
// whichever pattern-block-aligned chunks they are handed, and Merge
// tiles the fragments back into the space in order. A Compiler is not
// safe for concurrent use; the fan-out is one Compiler per goroutine.
type Compiler struct {
	p       SearchParams
	horizon int
	ids     map[string]int32 // view fingerprint → id, in this fragment's first-occurrence order
	keys    []string         // [id] the view's fingerprint, the key Merge re-interns by
	vals    []uint64         // [id*pw:(id+1)*pw] Vals of the view
	viewPre []bool           // [id] ever occurs strictly before a base decision
	table   runTable
	segs    []segment
	fpBuf   []byte // reused fingerprint build buffer (zero-copy interning)
	err     error  // a table limit exceeded; surfaced by Merge

	// prev supports delta reuse across consecutive Adds: when the
	// incoming run shares the previous run's failure pattern (by pointer)
	// and differs in at most one process's input — the enumeration's
	// Gray-code delta order makes that the common case — every view that
	// has not seen the changed input has a fingerprint identical to the
	// previous run's view at the same (proc, time), so its interned id is
	// copied from the previous run's row instead of recomputed. Only ids
	// already interned are reused, never assigned, so the interning order
	// (and with it deviation ordinals and report determinism) is
	// byte-identical to a cold compile. prev is the previous Add's
	// adversary, held only until the next Add.
	prev *model.Adversary
}

// NewCompiler validates the parameters and returns an empty compiler.
func NewCompiler(p SearchParams) (*Compiler, error) {
	if p.Width < 1 || p.Width > 2 {
		return nil, fmt.Errorf("unbeat: search width must be 1 or 2, got %d", p.Width)
	}
	if err := p.Space.Validate(); err != nil {
		return nil, err
	}
	if p.Space.N > 64 {
		return nil, fmt.Errorf("unbeat: search spaces hold at most 64 processes, got %d", p.Space.N)
	}
	maxV := 0
	for _, v := range p.Space.Values {
		if v < 0 {
			return nil, fmt.Errorf("unbeat: search values must be non-negative, got %d", v)
		}
		maxV = max(maxV, v)
	}
	return &Compiler{
		p:       p,
		horizon: p.T/p.K + 1,
		ids:     make(map[string]int32, 1<<10),
		table:   runTable{n: p.Space.N, pw: maxV>>6 + 1, ends: []int32{0}},
	}, nil
}

// Horizon is the knowledge-graph horizon compiled runs must be built to.
func (c *Compiler) Horizon() int { return c.horizon }

// Segment starts a new segment: the next Add compiles the space's
// base-th adversary, and each Add after it the adversary that follows,
// until the next Segment. A compiler whose first Add precedes any
// Segment call starts at offset 0, so a single compiler fed the whole
// enumeration in order needs no Segment call at all.
func (c *Compiler) Segment(base int) {
	c.segs = append(c.segs, segment{base: base, start: c.table.runs()})
}

// Add compiles one run: adv's knowledge graph g (built to Horizon, by
// any construction — the engine feeds revived Builder arenas) and the
// base protocol's decisions on it. adv must be the space's adversary at
// the run's offset (see Segment): witnesses rebuild it from that offset.
// Add copies everything it keeps, so g may be released and decisions
// reused immediately after the call.
func (c *Compiler) Add(adv *model.Adversary, g *knowledge.Graph, decisions []*sim.Decision) {
	if c.err != nil {
		return
	}
	if len(c.segs) == 0 {
		c.Segment(0)
	}
	t := &c.table
	n, pw, r := t.n, t.pw, t.runs()
	if adv.N() != n {
		c.err = fmt.Errorf("unbeat: compiled an %d-process run into an %d-process space", adv.N(), n)
		return
	}
	// Delta reuse (see prev): diff this run's inputs against the previous
	// run's when the failure pattern is shared. changed is the single
	// differing process, -1 when the inputs are identical; any wider diff
	// (or a pattern change) disables reuse for this run.
	prev := c.prev
	changed, reuse := -1, false
	if prev != nil && prev.Pattern == adv.Pattern {
		reuse = true
		for p, v := range adv.Inputs {
			if v != prev.Inputs[p] {
				if changed >= 0 {
					reuse, changed = false, -1
					break
				}
				changed = p
			}
		}
	}
	var correct uint64
	if reuse {
		correct = t.correct[r-1] // pattern-derived: same pattern, same answer
	} else {
		for i := 0; i < n; i++ {
			if adv.Pattern.Correct(i) {
				correct |= 1 << uint(i)
			}
		}
	}
	t.correct = append(t.correct, correct)
	t.present = append(t.present, make([]uint64, pw)...)
	present := t.present[r*pw:]
	for _, v := range adv.Inputs {
		present[v>>6] |= 1 << uint(v&63)
	}
	for i := 0; i < n; i++ {
		dt, dv := -1, model.Value(0)
		if i < len(decisions) && decisions[i] != nil {
			dt, dv = decisions[i].Time, decisions[i].Value
		}
		t.decTime = append(t.decTime, int8(dt))
		t.decVal = append(t.decVal, int32(dv))
		last := dt
		if last < 0 {
			// Crashed before deciding: views until last active time.
			last = min(adv.Pattern.CrashRound(i)-1, c.horizon)
		}
		var prow []int32
		if reuse {
			prow = t.row(r-1, i)
		}
		for m := 0; m <= last; m++ {
			var id int32
			if m < len(prow) && (changed < 0 || !g.Seen(i, m, changed, 0)) {
				// The view has not seen the changed input (or nothing
				// changed): its fingerprint — layers and sender masks are
				// pattern-fixed, and it encodes only the inputs of layer-0
				// processes — matches the previous run's view here, whose
				// id is already interned.
				id = prow[m]
			} else {
				// Interning is the compile hot path: the fingerprint is
				// built into the compiler's reused buffer and looked up
				// zero-copy; only a first-seen view materializes a key
				// string and a value-set slot.
				c.fpBuf = g.AppendFingerprint(c.fpBuf[:0], i, m)
				var ok bool
				if id, ok = c.ids[string(c.fpBuf)]; !ok {
					id = int32(len(c.keys))
					key := string(c.fpBuf)
					c.ids[key] = id
					c.keys = append(c.keys, key)
					c.vals = append(c.vals, make([]uint64, pw)...)
					copy(c.vals[len(c.vals)-pw:], g.ValsWords(i, m))
					c.viewPre = append(c.viewPre, false)
				}
			}
			if m < dt || dt < 0 {
				c.viewPre[id] = true
			}
			t.ids = append(t.ids, id)
		}
		if len(t.ids) > math.MaxInt32 {
			c.err = fmt.Errorf("unbeat: compiled space exceeds %d view-id slots", math.MaxInt32)
			return
		}
		t.ends = append(t.ends, int32(len(t.ids)))
	}
	c.prev = adv
}

// piece is one non-empty segment of a fragment, placed in the space.
type piece struct {
	frag, base, start, runs int
	ids                     int // global offset of the piece's first view id
}

// Merge seals compiled fragments into the input of the shard/test stages.
// The fragments' segments must tile the space's offsets [0, runs)
// exactly — a gap or an overlap is an error — and every fragment must
// have been built for the same search. Merge re-interns the fragments'
// view ids in global first-occurrence order (a view's pre-decision flag
// is the OR over the fragments that saw it), so view ids, deviation
// ordinals and everything the search reports are byte-identical to a
// single compiler fed the whole space in order, however the space was
// split. Merge consumes the fragments: they must not be used afterwards.
func Merge(frags ...*Compiler) (*Compiled, error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("unbeat: merge of no fragments")
	}
	p := frags[0].p
	var pieces []piece
	for fi, f := range frags {
		if f.err != nil {
			return nil, f.err
		}
		if !sameSearch(f.p, p) {
			return nil, fmt.Errorf("unbeat: merge of fragments compiled for different searches")
		}
		for si, s := range f.segs {
			end := f.table.runs()
			if si+1 < len(f.segs) {
				end = f.segs[si+1].start
			}
			if s.base < 0 {
				return nil, fmt.Errorf("unbeat: merge: segment at negative offset %d", s.base)
			}
			if end > s.start {
				pieces = append(pieces, piece{frag: fi, base: s.base, start: s.start, runs: end - s.start})
			}
		}
	}
	slices.SortFunc(pieces, func(a, b piece) int { return cmp.Compare(a.base, b.base) })
	runs, inOrder := 0, true
	for _, pc := range pieces {
		if pc.base > runs {
			return nil, fmt.Errorf("unbeat: merge: runs [%d, %d) were never compiled", runs, pc.base)
		}
		if pc.base < runs {
			return nil, fmt.Errorf("unbeat: merge: runs [%d, %d) were compiled twice", pc.base, min(runs, pc.base+pc.runs))
		}
		inOrder = inOrder && pc.frag == 0 && pc.start == runs
		runs += pc.runs
	}
	cs := &Compiled{p: p}
	if len(frags) == 1 && inOrder {
		// One fragment compiled in space order is the sequential compile:
		// its ids already are in global first-occurrence order.
		f := frags[0]
		cs.table, cs.vals, cs.viewPre = f.table, f.vals, f.viewPre
	} else if err := cs.mergeTables(frags, pieces, runs); err != nil {
		return nil, err
	}
	for _, f := range frags {
		*f = Compiler{err: fmt.Errorf("unbeat: compiler already merged")}
	}
	cs.seal()
	return cs, nil
}

// sameSearch reports whether two fragments were compiled for one search.
func sameSearch(a, b SearchParams) bool {
	return a.K == b.K && a.T == b.T && a.Uniform == b.Uniform && a.Width == b.Width &&
		a.Space.N == b.Space.N && a.Space.T == b.Space.T && a.Space.MaxRound == b.Space.MaxRound &&
		slices.Equal(a.Space.Values, b.Space.Values)
}

// mergeTables builds the global table from the fragments' pieces (sorted
// by offset and tiling [0, runs)): one pass in space order assigns global
// view ids at first occurrence, then each fragment's pieces are copied
// into place, ids remapped, and the fragment's table is dropped.
func (cs *Compiled) mergeTables(frags []*Compiler, pieces []piece, runs int) error {
	n, pw := frags[0].table.n, frags[0].table.pw
	remap := make([][]int32, len(frags))
	for fi, f := range frags {
		remap[fi] = make([]int32, len(f.keys))
		for id := range remap[fi] {
			remap[fi][id] = -1
		}
	}
	// Fingerprints are unique within a fragment, so only views shared
	// across fragments need the global interning map.
	var global map[string]int32
	if len(frags) > 1 {
		global = make(map[string]int32, len(frags[0].keys))
	}
	total := 0
	for pi := range pieces {
		pc := &pieces[pi]
		f, rm := frags[pc.frag], remap[pc.frag]
		t := &f.table
		lo, hi := t.ends[pc.start*n], t.ends[(pc.start+pc.runs)*n]
		pc.ids = total
		total += int(hi - lo)
		for _, id := range t.ids[lo:hi] {
			if rm[id] >= 0 {
				continue
			}
			gid := int32(len(cs.viewPre))
			if global != nil {
				if g, ok := global[f.keys[id]]; ok {
					gid = g
				} else {
					global[f.keys[id]] = gid
				}
			}
			if int(gid) == len(cs.viewPre) {
				cs.vals = append(cs.vals, f.vals[int(id)*pw:int(id+1)*pw]...)
				cs.viewPre = append(cs.viewPre, false)
			}
			cs.viewPre[gid] = cs.viewPre[gid] || f.viewPre[id]
			rm[id] = gid
		}
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("unbeat: compiled space exceeds %d view-id slots", math.MaxInt32)
	}
	g := runTable{
		n: n, pw: pw,
		ids:     make([]int32, total),
		ends:    make([]int32, runs*n+1),
		decTime: make([]int8, runs*n),
		decVal:  make([]int32, runs*n),
		correct: make([]uint64, runs),
		present: make([]uint64, runs*pw),
	}
	for fi, f := range frags {
		t, rm := &f.table, remap[fi]
		for _, pc := range pieces {
			if pc.frag != fi {
				continue
			}
			b, s, c := pc.base, pc.start, pc.runs
			lo, hi := t.ends[s*n], t.ends[(s+c)*n]
			for j, id := range t.ids[lo:hi] {
				g.ids[pc.ids+j] = rm[id]
			}
			shift := int32(pc.ids) - lo
			for k := 1; k <= c*n; k++ {
				g.ends[b*n+k] = t.ends[s*n+k] + shift
			}
			copy(g.decTime[b*n:(b+c)*n], t.decTime[s*n:(s+c)*n])
			copy(g.decVal[b*n:(b+c)*n], t.decVal[s*n:(s+c)*n])
			copy(g.correct[b:b+c], t.correct[s:s+c])
			copy(g.present[b*pw:(b+c)*pw], t.present[s*pw:(s+c)*pw])
		}
		f.table = runTable{} // copied: let the fragment's table go
	}
	cs.table = g
	return nil
}

// seal derives the shard/test stages' inputs from the merged table: the
// deviation-point list in canonical order (view-interning order, value
// ascending within a view), the occurrence sets that let candidate
// testing touch only the runs a deviation can change, and the base
// protocol's own violation set (normally empty — it is the premise of
// the whole search).
func (cs *Compiled) seal() {
	t, pw := &cs.table, cs.table.pw
	// Deviation points: views that occur strictly before a base decision
	// (deciding there is a strict improvement), with any value the view
	// has seen (anything else instantly violates Validity).
	for id, pre := range cs.viewPre {
		if !pre {
			continue
		}
		vals := bitset.Wrap(cs.vals[id*pw : (id+1)*pw])
		vals.ForEach(func(v int) bool {
			cs.devs = append(cs.devs, Deviation{View: id, Value: v})
			return true
		})
	}
	// occurs[view] = runs whose rows contain the view. Only deviation
	// views are ever looked up, so only they get a set, each carved from
	// one slab at its exact length (through its last occurrence).
	last := make([]int32, len(cs.viewPre))
	for r := range t.runs() {
		for _, id := range t.ids[t.ends[r*t.n]:t.ends[(r+1)*t.n]] {
			last[id] = int32(r)
		}
	}
	words := 0
	for id, pre := range cs.viewPre {
		if pre {
			words += int(last[id])>>6 + 1
		}
	}
	slab := make([]uint64, words)
	cs.occurs = make([]bitset.Set, len(cs.viewPre))
	for id, pre := range cs.viewPre {
		if pre {
			w := int(last[id])>>6 + 1
			cs.occurs[id] = bitset.Wrap(slab[:w])
			slab = slab[w:]
		}
	}
	for r := range t.runs() {
		for _, id := range t.ids[t.ends[r*t.n]:t.ends[(r+1)*t.n]] {
			if cs.viewPre[id] {
				cs.occurs[id].Add(r)
			}
		}
	}
	// baseBad = runs the base protocol itself violates. A candidate is
	// the base rule verbatim on every run outside its views' occurrence
	// sets, so these runs stay violated for every candidate that does
	// not touch them.
	sc := &testScratch{}
	for r := range t.runs() {
		if bad, _ := cs.violates(nil, r, sc); bad {
			cs.baseBad.Add(r)
		}
	}
}

// Compiled is the sealed output of the compile stage, ready for
// (repeated) candidate testing.
type Compiled struct {
	p       SearchParams
	table   runTable
	vals    []uint64     // [view*pw:(view+1)*pw] Vals of the view
	viewPre []bool       // [view] occurs strictly before a base decision
	devs    []Deviation  // deviation points in canonical order
	occurs  []bitset.Set // [view] → runs containing it; empty unless viewPre
	baseBad bitset.Set   // runs violated by the base protocol itself
}

// testScratch is the per-worker scratch of the test stage: the candidate
// under test (at most two deviations), the decided-value set of the run
// being simulated, and the relevant-run set of a pair candidate. One
// scratch serves every candidate a worker tests; nothing in the hot
// loop allocates.
type testScratch struct {
	devs     [2]Deviation
	decided  bitset.Set
	relevant bitset.Set
}

// violates simulates a candidate (deviation list, distinct views) on run
// r and reports (taskViolated, strictWinObserved).
func (cs *Compiled) violates(devs []Deviation, r int, sc *testScratch) (bool, bool) {
	t := &cs.table
	decided := sc.decided.Clear()
	strict := false
	undecidedCorrect := false
	correct := t.correct[r]
	present := t.present[r*t.pw : (r+1)*t.pw]
	for i := 0; i < t.n; i++ {
		k := r*t.n + i
		dTime := int(t.decTime[k])
		final := dTime
		finalVal := model.Value(t.decVal[k])
		// A candidate is a function of the view: whenever a deviating
		// view occurs while the process is undecided, it decides the
		// deviation's value — strictly early if before the base
		// decision, as a value override if at it.
	seq:
		for m, id := range t.ids[t.ends[k]:t.ends[k+1]] {
			for _, d := range devs {
				if int32(d.View) != id {
					continue
				}
				final, finalVal = m, d.Value
				if dTime < 0 || m < dTime {
					strict = true
				}
				break seq
			}
		}
		isCorrect := correct&(1<<uint(i)) != 0
		if final < 0 {
			if isCorrect {
				undecidedCorrect = true
			}
			continue
		}
		if finalVal < 0 || finalVal>>6 >= len(present) || present[finalVal>>6]&(1<<uint(finalVal&63)) == 0 {
			return true, strict // Validity broken
		}
		if cs.p.Uniform || isCorrect {
			decided.Add(finalVal)
		}
	}
	if undecidedCorrect {
		return true, strict // Decision broken
	}
	return decided.Count() > cs.p.K, strict
}

// testCandidate returns true if the candidate solves the task on every
// run while strictly beating the base protocol somewhere. Only the runs
// in relevant — those containing one of the candidate's views — are
// simulated: on every other run the candidate is the base protocol
// verbatim, so it violates there iff the base does (baseBad, normally
// empty), and can never win strictly there.
func (cs *Compiled) testCandidate(devs []Deviation, relevant *bitset.Set, sc *testScratch) bool {
	if !cs.baseBad.SubsetOf(relevant) {
		return false // an untouched run already violates under the base rule
	}
	strictAnywhere := false
	ok := true
	relevant.ForEach(func(ri int) bool {
		bad, strict := cs.violates(devs, ri, sc)
		if bad {
			ok = false
			return false
		}
		strictAnywhere = strictAnywhere || strict
		return true
	})
	return ok && strictAnywhere
}

// witness builds the typed witness of a dominating candidate: its
// deviations plus the first enumerated run on which it strictly wins.
// Runs keep no adversary; run r is the space's r-th, so the winning one
// is rebuilt from its offset.
func (cs *Compiled) witness(devs []Deviation) *Witness {
	w := &Witness{Deviations: append([]Deviation(nil), devs...)}
	sc := &testScratch{}
	for r := range cs.table.runs() {
		if _, strict := cs.violates(devs, r, sc); !strict {
			continue
		}
		for _, adv := range cs.p.Space.From(r) {
			w.AdvFingerprint = advFingerprintHex(adv)
			w.Adversary = adv.String()
			break
		}
		break
	}
	return w
}

// noWinner is the atomic sentinel for "no dominating candidate found".
const noWinner = int64(math.MaxInt64)

// bestMin lowers best to ord if ord is smaller — the lock-free minimal-
// ordinal merge that keeps the reported winner deterministic under
// parallel testing: a candidate is only skipped when its ordinal exceeds
// the current best, so every ordinal below the final winner is always
// tested, and the final best is exactly the canonical first winner.
func bestMin(best *atomic.Int64, ord int64) {
	for {
		cur := best.Load()
		if ord >= cur || best.CompareAndSwap(cur, ord) {
			return
		}
	}
}

// Shards runs body once per worker with strided work assignment and
// funnels out the first error; a body error cancels the derived context
// of every other worker. Parallelism ≤ 1 runs inline — the sequential
// search is the parallel search with one shard, not a separate code
// path. It is the worker-pool primitive of the analysis pipeline,
// shared by the search stages and the engine's certificate families.
func Shards(ctx context.Context, workers int, body func(ctx context.Context, w int) error) error {
	if workers <= 1 {
		return body(ctx, 0)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Candidate tests execute protocol decision rules, so a
			// panicking rule is isolated here: converted into a typed
			// analysis error instead of crashing the process, with the
			// shared cancel draining the other shards.
			err := func() (err error) {
				defer govern.Capture("unbeat: analysis worker", &err)
				return body(ctx, w)
			}()
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// ProgressSink throttles and serializes Progress callbacks for a staged
// analysis — the one implementation behind the search stages and the
// engine's certificate families. A nil sink (no progress consumer)
// costs one pointer check per unit. Snapshots are monotone within a
// stage: the emitted Done is re-read under the serializing mutex and
// never goes backwards, regardless of worker interleaving.
type ProgressSink struct {
	mu       sync.Mutex
	fn       func(Progress)
	stage    string
	total    int
	done     atomic.Int64
	lastEmit int
}

const progressEvery = 64

// NewProgressSink wraps fn; a nil fn yields a nil (no-op) sink.
func NewProgressSink(fn func(Progress)) *ProgressSink {
	if fn == nil {
		return nil
	}
	return &ProgressSink{fn: fn}
}

// Stage opens a new stage and emits its zero snapshot. Stages are
// sequential (barriers between them), so no worker bumps concurrently
// with a Stage call.
func (p *ProgressSink) Stage(stage string, total int) {
	if p == nil {
		return
	}
	p.stage = stage
	p.total = total
	p.done.Store(0)
	p.lastEmit = -1
	p.emit()
}

// Bump records one processed unit, emitting every progressEvery units.
// Safe for concurrent use by stage workers.
func (p *ProgressSink) Bump() {
	if p == nil {
		return
	}
	if d := p.done.Add(1); d%progressEvery == 0 || int(d) == p.total {
		p.emit()
	}
}

// emit re-reads the counter under the mutex so a preempted worker can
// never publish a snapshot older than one already delivered.
func (p *ProgressSink) emit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	done := int(p.done.Load())
	if done <= p.lastEmit {
		return
	}
	p.lastEmit = done
	p.fn(Progress{Stage: p.stage, Done: done, Total: p.total})
}

// pairPrunable applies the width-2 locality rule: deviation B can only
// repair A's violated runs if B's view occurs in every one of them.
func (cs *Compiled) pairPrunable(singleViolated []bitset.Set, a, b Deviation, ai, bi int) bool {
	return !singleViolated[ai].SubsetOf(&cs.occurs[b.View]) ||
		!singleViolated[bi].SubsetOf(&cs.occurs[a.View])
}

// Search runs the shard/test stages over the compiled space: width-1
// candidates first (their violation sets feed the width-2 locality
// prune), then all distinct-view pairs. Candidates are strided across
// the workers in canonical order; each worker owns private scratch and
// counters merged once when its stride is drained. The moment a
// dominating candidate is found its ordinal is published, in-flight
// workers skip every larger ordinal, and the stages after the current
// one are cancelled through the derived context — early termination with
// a deterministic (canonical-first) witness.
func (cs *Compiled) Search(ctx context.Context, opts SearchOptions) (*SearchReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	prog := NewProgressSink(opts.Progress)
	report := &SearchReport{Runs: cs.table.runs(), Views: len(cs.devs)}
	nd := len(cs.devs)

	// Stage: width-1. Runs to completion even when a winner appears
	// mid-stage (skipping ordinals above it): the violation sets of ALL
	// single deviations are the width-2 prune input, and a full stage
	// keeps the counters deterministic. Each candidate simulates only
	// the runs its view occurs in — elsewhere it is the base rule
	// verbatim, so those runs contribute exactly the base's own
	// violations (baseBad) and no strict win.
	singleViolated := make([]bitset.Set, nd) // [di] written only by di's worker
	var best atomic.Int64
	best.Store(noWinner)
	prog.Stage("width-1", nd)
	err := Shards(ctx, workers, func(ctx context.Context, w int) error {
		sc := &testScratch{}
		for di := w; di < nd; di += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			if int64(di) > best.Load() {
				continue // a smaller winner already exists; sets past it are never read
			}
			d := cs.devs[di]
			sc.devs[0] = d
			vio := &singleViolated[di]
			strictAnywhere := false
			cs.occurs[d.View].ForEach(func(ri int) bool {
				bad, strict := cs.violates(sc.devs[:1], ri, sc)
				if bad {
					vio.Add(ri)
				}
				strictAnywhere = strictAnywhere || strict
				return true
			})
			if !cs.baseBad.Empty() {
				vio.UnionWith(sc.relevant.CopyFrom(&cs.baseBad).SubtractWith(&cs.occurs[d.View]))
			}
			if strictAnywhere && vio.Empty() {
				bestMin(&best, int64(di))
			}
			prog.Bump()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b := best.Load(); b != noWinner {
		report.Beaten = true
		report.Candidates = int(b) + 1 // canonical prefix through the winner
		report.Witness = cs.witness(cs.devs[b : b+1])
		return report, nil
	}
	report.Candidates = nd
	if cs.p.Width == 1 {
		return report, nil
	}

	// Stage: width-2 over all distinct-view pairs, in canonical ordinal
	// order.
	totalPairs := 0
	for ai := 0; ai < nd; ai++ {
		for bi := ai + 1; bi < nd; bi++ {
			if cs.devs[ai].View != cs.devs[bi].View {
				totalPairs++
			}
		}
	}
	type pairAcc struct{ pruned, tested int }
	accs := make([]pairAcc, workers)
	best.Store(noWinner)
	prog.Stage("width-2", totalPairs)
	err = Shards(ctx, workers, func(ctx context.Context, w int) error {
		sc := &testScratch{}
		acc := &accs[w]
		ord := -1
		for ai := 0; ai < nd; ai++ {
			for bi := ai + 1; bi < nd; bi++ {
				a, b := cs.devs[ai], cs.devs[bi]
				if a.View == b.View {
					continue // one decision per view
				}
				ord++
				if ord%workers != w {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if int64(ord) > best.Load() {
					continue // a smaller winner already exists
				}
				if cs.pairPrunable(singleViolated, a, b, ai, bi) {
					acc.pruned++
					prog.Bump()
					continue
				}
				acc.tested++
				sc.devs[0], sc.devs[1] = a, b
				relevant := sc.relevant.CopyFrom(&cs.occurs[a.View]).UnionWith(&cs.occurs[b.View])
				if cs.testCandidate(sc.devs[:2], relevant, sc) {
					bestMin(&best, int64(ord))
				}
				prog.Bump()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b := best.Load(); b != noWinner {
		// Deterministic counters for the beaten case: re-derive the
		// prune/test split of the canonical prefix below the winner (the
		// prune predicate reads only the completed width-1 sets, so this
		// is a pure recount, no run simulation).
		report.Beaten = true
		cs.recountPrefix(report, singleViolated, int(b))
		return report, nil
	}
	for _, acc := range accs {
		report.PairsPruned += acc.pruned
		report.PairsTested += acc.tested
	}
	report.Candidates = nd + report.PairsTested
	return report, nil
}

// recountPrefix fills the beaten-case width-2 counters and witness: the
// prune/test split over pair ordinals strictly below the winner, plus
// the winner itself (tested by definition).
func (cs *Compiled) recountPrefix(report *SearchReport, singleViolated []bitset.Set, winner int) {
	nd := len(cs.devs)
	ord := -1
	for ai := 0; ai < nd; ai++ {
		for bi := ai + 1; bi < nd; bi++ {
			a, b := cs.devs[ai], cs.devs[bi]
			if a.View == b.View {
				continue
			}
			ord++
			if ord == winner {
				report.PairsTested++
				report.Candidates = nd + report.PairsTested
				report.Witness = cs.witness([]Deviation{a, b})
				return
			}
			if cs.pairPrunable(singleViolated, a, b, ai, bi) {
				report.PairsPruned++
			} else {
				report.PairsTested++
			}
		}
	}
}

// Search enumerates the space, compiles all runs of the base protocol
// through a recycled Builder arena and pooled run scratch, and tests
// every ≤Width-view early-deviation rule sequentially. It is the
// single-call convenience form of the pipeline; Engine.Analyze runs the
// same stages with the engine's backend, worker pool, and streaming
// progress.
func Search(ctx context.Context, base sim.Protocol, p SearchParams) (*SearchReport, error) {
	c, err := NewCompiler(p)
	if err != nil {
		return nil, err
	}
	builder := knowledge.NewBuilder()
	var (
		sc   sim.Scratch
		res  sim.Result
		cerr error
	)
	err = p.Space.ForEach(func(adv *model.Adversary) bool {
		if cerr = ctx.Err(); cerr != nil {
			return false
		}
		g := builder.Build(adv, c.Horizon())
		sim.RunWithGraphInto(base, g, &sc, &res)
		c.Add(adv, g, res.Decisions)
		g.Release()
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	cs, err := Merge(c)
	if err != nil {
		return nil, err
	}
	return cs.Search(ctx, SearchOptions{Parallelism: 1})
}
