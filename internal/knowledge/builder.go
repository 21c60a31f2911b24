package knowledge

import (
	"math/bits"
	"sync"
	"unsafe"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// Meter observes the byte deltas of builder-owned storage — the
// engine's resource governor, reduced to the three calls this package
// needs. Grow/Shrink report capacity created and freed at the
// allocation choke points (storage.ensure, the lazy senders slab);
// Retain gates recycling: when it reports false, Release frees the
// graph's storage back to the GC instead of parking it as the spare.
type Meter interface {
	Grow(bytes int64)
	Shrink(bytes int64)
	Retain() bool
}

// Builder constructs knowledge graphs with buffer reuse: the build-time
// scratch (hoisted per-round crash sets, assignment frontiers, hidden
// buckets) lives in the Builder across calls, and storage released by
// Graph.Release is recycled into the next Build. A Builder is not safe
// for concurrent use — engines hold one per worker.
//
// Graphs from Build are indistinguishable from graphs from New; the only
// difference is the lifecycle contract that Release adds.
type Builder struct {
	sc       buildScratch
	spare    storage
	hasSpare bool
	// spareG and lastPat remember the released graph and the failure
	// pattern it was built over, enabling the revive fast path: a
	// rebuild over the same pattern (by pointer — patterns are immutable
	// by repo-wide contract) at the same horizon reuses every
	// pattern-derived table verbatim and recomputes only the value
	// layer. Exhaustive enumerations yield all input vectors of one
	// canonical pattern consecutively, sharing the *FailurePattern, so
	// aggregating sweep workers hit this path for all but the first
	// adversary of each pattern block.
	spareG  *Graph
	lastPat *model.FailurePattern
	// spareIn is a copy of the released graph's inputs, taken by Release:
	// the released adversary itself may be overwritten once its graph is
	// released (a sweep worker carves each window's adversaries from one
	// reused arena), so revive's input diff never reads it.
	spareIn []model.Value
	// scPat/scHorizon/scN record which (pattern, horizon, n) the build
	// scratch currently describes — only full builds mutate sc, and
	// revive's fillValues reads sc.cr and sc.base, so reviving is only
	// sound while the scratch still matches the spare graph. An
	// interleaved full build over another adversary (legal: multiple
	// graphs from one Builder may be live) invalidates the scratch
	// without touching the spare, and these fields are how revive
	// notices.
	scPat     *model.FailurePattern
	scHorizon int
	scN       int

	// built, revived, and patched count the full builds, revive
	// fast-path hits, and delta-patch hits this builder has served. A
	// Builder belongs to one worker, so plain ints suffice; engines
	// harvest them with TakeCounts when the worker returns its kit,
	// turning per-build bookkeeping into three adds.
	built   int
	revived int
	patched int

	// meter, when set, observes every storage byte this builder's graphs
	// hold; accounted is the running total reported and not yet
	// shrunk — Discard's receipt for returning everything at once.
	meter     Meter
	accounted int64
}

// NewBuilder returns an empty Builder. The zero value is also usable.
func NewBuilder() *Builder { return &Builder{} }

// SetMeter attaches a byte meter to the builder. Set it before the
// first Build: storage allocated while unmetered is never reported.
func (b *Builder) SetMeter(m Meter) { b.meter = m }

// account reports a storage byte delta to the meter and keeps the
// builder's receipt in sync.
func (b *Builder) account(delta int64) {
	if b == nil || b.meter == nil || delta == 0 {
		return
	}
	b.accounted += delta
	if delta > 0 {
		b.meter.Grow(delta)
	} else {
		b.meter.Shrink(-delta)
	}
}

// Discard drops the builder's retained storage — the parked spare and
// its revive state — and shrinks the meter by everything the builder
// still has accounted, covering graphs a panic left un-Released. The
// builder stays usable; its next Build simply starts cold. Engines call
// it when a worker kit is retired (shedding, shutdown, or a recovered
// panic that may have corrupted the kit).
func (b *Builder) Discard() {
	b.spare, b.hasSpare, b.spareG, b.lastPat = storage{}, false, nil, nil
	b.scPat, b.scHorizon, b.scN = nil, 0, 0
	if b.meter != nil && b.accounted != 0 {
		if b.accounted > 0 {
			b.meter.Shrink(b.accounted)
		} else {
			b.meter.Grow(-b.accounted)
		}
		b.accounted = 0
	}
}

// Forget ends the builder's revive chain while keeping its storage: the
// next Build is a full build, into the released graph's storage, over
// whatever pattern it is given. Nothing the builder keeps points into
// the last pattern or adversary any more: not the parked header, and
// not the build scratch's per-crasher delivery sets. Revive keys on the
// failure pattern's pointer, so a caller that may change a pattern in
// place between two batches of builds — an engine's callers between two
// runs — must call Forget between them.
func (b *Builder) Forget() {
	b.lastPat, b.scPat = nil, nil
	if b.spareG != nil {
		b.spareG.Adv = nil
	}
	b.sc.forget()
}

// bytes sums the capacity of every storage slab — the quantity the
// meter accounts. Element sizes come from unsafe.Sizeof, so the account
// tracks real slab footprints, not guesses.
func (st *storage) bytes() int64 {
	const wordSize = int64(unsafe.Sizeof(uint64(0)))
	return int64(cap(st.arena))*wordSize +
		int64(cap(st.sets))*int64(unsafe.Sizeof(bitset.Set{})) +
		int64(cap(st.ptrs))*int64(unsafe.Sizeof((*bitset.Set)(nil))) +
		int64(cap(st.views))*int64(unsafe.Sizeof(View{})) +
		int64(cap(st.ints))*int64(unsafe.Sizeof(int(0))) +
		int64(cap(st.senders))*wordSize
}

// Build computes the communication graph of adv up to horizon, reusing
// the builder's scratch and any storage a previous graph released. When
// the released graph was built over the same failure pattern at the
// same horizon, only the input-dependent tables (value sets, minima)
// are recomputed.
func (b *Builder) Build(adv *model.Adversary, horizon int) *Graph {
	if g := b.revive(adv, horizon); g != nil {
		return g
	}
	b.built++
	return build(adv, horizon, &b.sc, b)
}

// TakeCounts returns the full-build, revive, and patch counts accumulated
// since the last call and resets them. Engines fold the counts into their
// observability counters when a worker's builder is returned to the
// pool.
func (b *Builder) TakeCounts() (built, revived, patched int) {
	built, revived, patched = b.built, b.revived, b.patched
	b.built, b.revived, b.patched = 0, 0, 0
	return built, revived, patched
}

// spareMatches reports whether the parked spare graph can be rebuilt for
// adv at horizon: same pattern (by pointer — patterns are immutable by
// repo-wide contract), same horizon and process count, scratch still
// describing that pattern's full build, and adv's inputs narrow enough
// for the reused value-set layout. When it can, changed and diffs
// describe how adv's inputs differ from the spare's, as Release copied
// them: diffs is the number of differing positions capped at 2, and
// changed is the single differing index when diffs == 1 (-1 when diffs
// == 0).
func (b *Builder) spareMatches(adv *model.Adversary, horizon int) (changed, diffs int, ok bool) {
	g := b.spareG
	if g == nil || !b.hasSpare || adv.Pattern != b.lastPat || horizon != g.Horizon || adv.N() != g.n {
		return -1, 0, false
	}
	if b.scPat != adv.Pattern || b.scHorizon != horizon || b.scN != adv.N() {
		return -1, 0, false
	}
	maxV := -1
	for _, v := range adv.Inputs {
		if v > maxV {
			maxV = v
		}
	}
	if maxV >= 0 && (maxV>>6)+1 > g.wv {
		return -1, 0, false
	}
	changed = -1
	for p, v := range adv.Inputs {
		if v != b.spareIn[p] {
			changed = p
			if diffs++; diffs > 1 {
				changed = -1
				break
			}
		}
	}
	return changed, diffs, true
}

// attachSpare reattaches the released spare graph's storage for adv and
// re-slices the int tables over it. The value region is left exactly as
// the spare parked it — still describing the spare's old inputs — so the
// caller decides how much of it to recompute: nothing (identical inputs),
// the touched rows (single-input patch), or all of it (revive refill).
func (b *Builder) attachSpare(adv *model.Adversary) *Graph {
	g := b.spareG
	g.store = b.spare
	b.spare, b.hasSpare, b.spareG, b.lastPat = storage{}, false, nil, nil
	g.owner = b
	g.Adv = adv
	nodes := (g.Horizon + 1) * g.n
	kcLen := nodes * g.n
	hidLen := nodes * (g.Horizon + 1)
	ints := g.store.ints
	g.knownCrash = ints[:kcLen]
	g.hiddenCount = ints[kcLen : kcLen+hidLen]
	g.hc = ints[kcLen+hidLen : kcLen+hidLen+nodes]
	g.fails = ints[kcLen+hidLen+nodes : kcLen+hidLen+2*nodes]
	g.minVal = ints[kcLen+hidLen+2*nodes : kcLen+hidLen+3*nodes]
	g.cr = ints[kcLen+hidLen+3*nodes : kcLen+hidLen+3*nodes+g.n]
	return g
}

// revive reattaches the released spare graph for a same-pattern,
// same-horizon rebuild: the views, knownCrash, and hidden tables depend
// only on the failure pattern and are reused verbatim, and the value
// layer is recomputed as cheaply as the input diff allows. Identical
// inputs keep the parked value rows untouched; a single differing input
// takes the patch kernel, rewriting only the rows of views that have
// seen the changed process (both counted as patched); anything wider
// zeroes the value region and refills it (counted as revived). Returns
// nil when the spare does not match (different pattern, horizon, process
// count, stale scratch, or inputs too wide for the reused value-set
// layout) — the caller then runs a full build.
func (b *Builder) revive(adv *model.Adversary, horizon int) *Graph {
	changed, diffs, ok := b.spareMatches(adv, horizon)
	if !ok {
		return nil
	}
	g := b.attachSpare(adv)
	switch diffs {
	case 0:
		b.patched++
	case 1:
		if !b.sc.touchBuilt {
			b.sc.buildTouch(g.store.arena, g.n, g.w, (g.Horizon+1)*g.n)
		}
		patchValues(g, &b.sc, changed)
		b.patched++
	default:
		nodes := (g.Horizon + 1) * g.n
		vals := g.store.arena[g.valsOff : g.valsOff+nodes*g.wv]
		for i := range vals {
			vals[i] = 0
		}
		fillValues(g, &b.sc)
		b.revived++
	}
	return g
}

// Release returns the graph's storage to the Builder that built it, for
// reuse by its next Build. The caller asserts that nothing reachable
// retains the graph: its views, sets, and tables are invalidated, and
// any later query on it will panic or read another graph's data. Graphs
// built by New do not recycle; Release on them is a no-op. The graph's
// adversary is not retained either: Release keeps a copy of its inputs
// for the next Build's input diff, so the caller may overwrite or drop
// the adversary as soon as Release returns.
//
// Under a metered builder whose meter refuses retention (the governor's
// soft ceiling is crossed), Release frees the storage back to the GC
// instead of parking it as the spare — recycling is the first thing
// memory pressure turns off.
func (g *Graph) Release() {
	if g.owner == nil {
		return
	}
	o := g.owner
	if o.meter != nil && !o.meter.Retain() {
		o.account(-g.store.bytes())
		g.store = storage{}
		g.knownCrash, g.hiddenCount, g.hc, g.fails, g.minVal, g.cr = nil, nil, nil, nil, nil, nil
		g.owner = nil
		return
	}
	o.spare = g.store
	o.hasSpare = true
	o.spareG = g
	o.lastPat = g.Adv.Pattern
	o.spareIn = append(o.spareIn[:0], g.Adv.Inputs...)
	g.store = storage{}
	g.knownCrash, g.hiddenCount, g.hc, g.fails, g.minVal, g.cr = nil, nil, nil, nil, nil, nil
	g.owner = nil
}

// crasher pairs a faulty process with its crash-round delivery set.
type crasher struct {
	proc int
	del  *bitset.Set
}

// buildScratch is the per-build working memory, reused across builds by
// Builders and pooled for New. Everything here is dead once build
// returns; nothing in a Graph aliases it.
type buildScratch struct {
	cr    []int         // crash round per process (hoisted map lookups)
	delOf []*bitset.Set // crash-round delivery set per faulty process
	base  []int         // arena offset of each node's layer block
	dead  []bitset.Set  // dead[ρ] = {j : crashRound(j) < ρ}, the hoisted "silent senders"
	deadW []uint64      // slab behind dead
	crash [][]crasher   // crash[ρ] = processes crashing in round ρ
	bkt   [][]int       // bkt[ρ] = {j : knownCrash(j) == ρ} while filling hidden tables

	// touched-views table (CSR): touchNodes[touchOff[p]:touchOff[p+1]]
	// lists, in increasing node order, every node whose layer-0 view
	// contains process p — exactly the nodes whose value row depends on
	// p's input. Pattern-derived (layer-0 membership never depends on
	// inputs), so it shares the scratch's scPat/scHorizon/scN validity;
	// patchValues walks one row of it instead of every node. Only a
	// patch reads it, so it is built on the first patch after a full
	// build (touchBuilt records that), and a stream of full builds that
	// never patches never pays for it. Increasing node order guarantees
	// a frozen node's predecessor — same layer-0 block, hence same
	// membership — is patched before the frozen node copies its row.
	touchOff   []int
	touchNodes []int
	touchBuilt bool

	// word-width frontier sets, re-wrapped over the slabs below per build
	seen, assigned, u, newly, gset bitset.Set
	assignedW, uW, newlyW, gsetW   []uint64
}

var scratchPool = sync.Pool{New: func() any { return &buildScratch{} }}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// forget drops every pointer the scratch holds into the last pattern
// built — the delivery sets in delOf and crash — and into the last
// graph's arena, so a parked builder pins neither. prepare refills all
// of them on the next full build.
func (sc *buildScratch) forget() {
	clear(sc.delOf[:cap(sc.delOf)])
	for _, c := range sc.crash[:cap(sc.crash)] {
		clear(c[:cap(c)])
	}
	sc.seen = bitset.Set{}
}

// prepare hoists everything build derives from the failure pattern alone:
// crash rounds, per-round crasher lists with their delivery sets, and the
// cumulative dead-before-ρ bitsets that computeKnownCrash previously
// re-derived by scanning all n processes per seen node. It also marks
// the touched-views table stale: it describes the previous pattern.
func (sc *buildScratch) prepare(pat *model.FailurePattern, n, w, h int) {
	sc.touchBuilt = false
	sc.cr = resizeInts(sc.cr, n)
	for i := 0; i < n; i++ {
		sc.cr[i] = model.NoCrash
	}
	if cap(sc.delOf) < n {
		sc.delOf = make([]*bitset.Set, n)
	}
	sc.delOf = sc.delOf[:n]
	for i := range sc.delOf {
		sc.delOf[i] = nil
	}
	if cap(sc.crash) < h+1 {
		sc.crash = make([][]crasher, h+1)
	}
	sc.crash = sc.crash[:h+1]
	for i := range sc.crash {
		sc.crash[i] = sc.crash[i][:0]
	}
	sc.deadW = resizeWords(sc.deadW, (h+1)*w)
	if cap(sc.dead) < h+1 {
		sc.dead = make([]bitset.Set, h+1)
	}
	sc.dead = sc.dead[:h+1]
	for rho := 0; rho <= h; rho++ {
		sc.dead[rho] = bitset.Wrap(sc.deadW[rho*w : (rho+1)*w])
	}
	for _, c := range pat.Crashes {
		p := c.Proc
		sc.cr[p] = c.Round
		sc.delOf[p] = c.Delivered
		if c.Round <= h {
			sc.crash[c.Round] = append(sc.crash[c.Round], crasher{proc: p, del: c.Delivered})
		}
		for rho := min(c.Round, h) + 1; rho <= h; rho++ {
			sc.deadW[rho*w+p>>6] |= 1 << uint(p&63)
		}
	}

	sc.base = resizeInts(sc.base, (h+1)*n)
	if cap(sc.bkt) < h+1 {
		sc.bkt = make([][]int, h+1)
	}
	sc.bkt = sc.bkt[:h+1]
	sc.assignedW = resizeWords(sc.assignedW, w)
	sc.uW = resizeWords(sc.uW, w)
	sc.newlyW = resizeWords(sc.newlyW, w)
	sc.gsetW = resizeWords(sc.gsetW, w)
	sc.assigned = bitset.Wrap(sc.assignedW)
	sc.u = bitset.Wrap(sc.uW)
	sc.newly = bitset.Wrap(sc.newlyW)
	sc.gset = bitset.Wrap(sc.gsetW)
}

// ensure sizes the storage slabs, reusing released capacity when it fits.
// Only the arena needs zeroing: every other slab is fully overwritten by
// build, and the stale hiddenCount entries at layers l > m are unreachable
// through the bounds-checked accessors. When the owning builder carries
// a meter, the capacity delta this call creates is accounted — ensure is
// the arena allocation choke point the governor watches.
func (st *storage) ensure(arenaLen, sets, views, ints int, owner *Builder) {
	var pre int64
	metered := owner != nil && owner.meter != nil
	if metered {
		pre = st.bytes()
	}
	st.arena = resizeWords(st.arena, arenaLen)
	if cap(st.sets) < sets {
		st.sets = make([]bitset.Set, sets)
	}
	st.sets = st.sets[:sets]
	if cap(st.ptrs) < sets {
		st.ptrs = make([]*bitset.Set, sets)
	}
	st.ptrs = st.ptrs[:sets]
	if cap(st.views) < views {
		st.views = make([]View, views)
	}
	st.views = st.views[:views]
	if cap(st.ints) < ints {
		st.ints = make([]int, ints)
	}
	st.ints = st.ints[:ints]
	if metered {
		owner.account(st.bytes() - pre)
	}
}

// build is the shared core behind New and Builder.Build. It lays the
// whole graph into flat storage: views first (word-parallel unions over
// contiguous layer blocks), then knownCrash via the hoisted dead/crasher
// sets, then the hidden tables as union popcounts, then value sets and
// minima. Frozen nodes copy their predecessor's rows instead of
// recomputing them.
func build(adv *model.Adversary, horizon int, sc *buildScratch, owner *Builder) *Graph {
	n := adv.N()
	w := (n + 63) >> 6
	h := horizon
	maxV := -1
	for _, v := range adv.Inputs {
		if v > maxV {
			maxV = v
		}
	}
	wv := 1
	if maxV >= 0 {
		wv = (maxV >> 6) + 1
	}

	sc.prepare(adv.Pattern, n, w, h)
	if owner != nil {
		owner.scPat, owner.scHorizon, owner.scN = adv.Pattern, h, n
	}

	// Count layer sets: every process has one layer at time 0; an active
	// node at time m ≥ 1 owns m+1 fresh layers, a frozen node shares its
	// predecessor's block.
	totalSets := n
	for m := 1; m <= h; m++ {
		for i := 0; i < n; i++ {
			if sc.cr[i] > m {
				totalSets += m + 1
			}
		}
	}
	valsOff := totalSets * w
	arenaLen := valsOff + (h+1)*n*wv
	nodes := (h + 1) * n
	kcLen := nodes * n
	hidLen := nodes * (h + 1)
	intsLen := kcLen + hidLen + 3*nodes + n

	// A builder's released spare lends its storage and its header: the
	// header is overwritten by a fresh literal, so nothing of the spare's
	// graph — its lazily built senders included — survives into this one.
	var (
		st storage
		g  *Graph
	)
	if owner != nil && owner.hasSpare {
		st, g = owner.spare, owner.spareG
		owner.spare, owner.hasSpare = storage{}, false
		owner.spareG, owner.lastPat = nil, nil
	}
	if g == nil {
		g = new(Graph)
	}
	st.ensure(arenaLen, totalSets, nodes, intsLen, owner)

	*g = Graph{
		Adv: adv, Horizon: h,
		n: n, w: w, wv: wv,
		store: st, owner: owner,
		valsOff: valsOff,
	}
	ints := g.store.ints
	g.knownCrash = ints[:kcLen]
	g.hiddenCount = ints[kcLen : kcLen+hidLen]
	g.hc = ints[kcLen+hidLen : kcLen+hidLen+nodes]
	g.fails = ints[kcLen+hidLen+nodes : kcLen+hidLen+2*nodes]
	g.minVal = ints[kcLen+hidLen+2*nodes : kcLen+hidLen+3*nodes]
	g.cr = ints[kcLen+hidLen+3*nodes : kcLen+hidLen+3*nodes+n]
	copy(g.cr, sc.cr)
	arena := g.store.arena

	// ---- views ----
	cursor, setIdx := 0, 0
	newLayerBlock := func(count int) []*bitset.Set {
		first := setIdx
		for l := 0; l < count; l++ {
			g.store.sets[setIdx] = bitset.Wrap(arena[cursor : cursor+w])
			g.store.ptrs[setIdx] = &g.store.sets[setIdx]
			cursor += w
			setIdx++
		}
		return g.store.ptrs[first:setIdx:setIdx]
	}
	for i := 0; i < n; i++ {
		sc.base[i] = cursor
		layers := newLayerBlock(1)
		arena[sc.base[i]+i>>6] |= 1 << uint(i&63)
		g.store.views[i] = View{Proc: i, Time: 0, Layers: layers}
	}
	for m := 1; m <= h; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			if sc.cr[i] <= m { // frozen: no round-m receive
				sc.base[node] = sc.base[node-n]
				g.store.views[node] = View{Proc: i, Time: m, Layers: g.store.views[node-n].Layers}
				continue
			}
			nb := cursor
			sc.base[node] = nb
			layers := newLayerBlock(m + 1)
			for j := 0; j < n; j++ {
				// Delivered(j, i, m) unrolled over the hoisted crash
				// rounds: alive senders (and i itself) always deliver,
				// round-m crashers per their delivery set.
				if sc.cr[j] < m || (sc.cr[j] == m && !sc.delOf[j].Contains(i)) {
					continue
				}
				prev := node - n - i + j // (m-1)*n + j
				pl := len(g.store.views[prev].Layers)
				src := arena[sc.base[prev] : sc.base[prev]+pl*w]
				dst := arena[nb : nb+pl*w]
				for x, sw := range src {
					dst[x] |= sw
				}
			}
			arena[nb+m*w+i>>6] |= 1 << uint(i&63)
			g.store.views[node] = View{Proc: i, Time: m, Layers: layers}
		}
	}

	// ---- knownCrash + failures known ----
	for m := 0; m <= h; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			row := g.knownCrash[node*n : node*n+n]
			if m > 0 && sc.cr[i] <= m {
				copy(row, g.knownCrash[(node-n)*n:(node-n)*n+n])
				g.fails[node] = g.fails[node-n]
				continue
			}
			for j := range row {
				row[j] = NoKnownCrash
			}
			sc.assigned.CopyFrom(nil)
			nb := sc.base[node]
			for rho := 1; rho <= m; rho++ {
				seenW := arena[nb+rho*w : nb+(rho+1)*w]
				empty := true
				for _, sw := range seenW {
					if sw != 0 {
						empty = false
						break
					}
				}
				if empty {
					continue
				}
				sc.seen = bitset.Wrap(seenW)
				// U(ρ) = every process provably crashed by some seen
				// ⟨h,ρ⟩: all senders silent since before ρ, plus each
				// round-ρ crasher whose delivery set misses a seen node.
				sc.u.CopyFrom(&sc.dead[rho])
				for _, c := range sc.crash[rho] {
					if bitset.AndNotCount(&sc.seen, c.del) > 0 {
						sc.u.Add(c.proc)
					}
				}
				// Ascending ρ ⇒ first assignment is the minimum.
				sc.newly.CopyFrom(&sc.u).SubtractWith(&sc.assigned)
				for wi, word := range sc.newly.Words() {
					for word != 0 {
						b := bits.TrailingZeros64(word)
						row[wi*64+b] = rho
						word &^= 1 << uint(b)
					}
				}
				sc.assigned.UnionWith(&sc.u)
			}
			g.fails[node] = sc.assigned.Count()
		}
	}

	// ---- hidden tables: count = n − |seen(ℓ) ∪ {j : knownCrash ≤ ℓ}| ----
	hStride := h + 1
	for m := 0; m <= h; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			row := g.knownCrash[node*n : node*n+n]
			for l := 0; l <= m; l++ {
				sc.bkt[l] = sc.bkt[l][:0]
			}
			for j := 0; j < n; j++ {
				if r := row[j]; r <= m {
					sc.bkt[r] = append(sc.bkt[r], j)
				}
			}
			sc.gset.CopyFrom(nil)
			L := len(g.store.views[node].Layers)
			nb := sc.base[node]
			hrow := g.hiddenCount[node*hStride : node*hStride+m+1]
			minC := n
			for l := 0; l <= m; l++ {
				for _, j := range sc.bkt[l] {
					sc.gset.Add(j)
				}
				var cnt int
				if l < L {
					sc.seen = bitset.Wrap(arena[nb+l*w : nb+(l+1)*w])
					cnt = n - bitset.OrCount(&sc.seen, &sc.gset)
				} else {
					cnt = n - sc.gset.Count()
				}
				hrow[l] = cnt
				if cnt < minC {
					minC = cnt
				}
			}
			g.hc[node] = minC
		}
	}

	fillValues(g, sc)
	return g
}

// buildTouch computes the per-pattern touched-views table from the
// layer-0 offsets the pattern's full build left in sc.base and the
// layer-0 words of its arena: for each process p, the nodes whose
// layer-0 view contains p, in increasing node order. Two passes over
// the layer-0 words (count, then fill) lay the lists out as CSR in two
// reused int slabs; the end-cursor trick turns the fill cursors back
// into offsets with one shift.
func (sc *buildScratch) buildTouch(arena []uint64, n, w, nodes int) {
	sc.touchBuilt = true
	sc.touchOff = resizeInts(sc.touchOff, n+1)
	for p := 0; p <= n; p++ {
		sc.touchOff[p] = 0
	}
	for node := 0; node < nodes; node++ {
		layer0 := arena[sc.base[node] : sc.base[node]+w]
		for wi, word := range layer0 {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				sc.touchOff[wi*64+b+1]++
			}
		}
	}
	for p := 0; p < n; p++ {
		sc.touchOff[p+1] += sc.touchOff[p]
	}
	sc.touchNodes = resizeInts(sc.touchNodes, sc.touchOff[n])
	for node := 0; node < nodes; node++ {
		layer0 := arena[sc.base[node] : sc.base[node]+w]
		for wi, word := range layer0 {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				p := wi*64 + b
				sc.touchNodes[sc.touchOff[p]] = node
				sc.touchOff[p]++
			}
		}
	}
	copy(sc.touchOff[1:], sc.touchOff[:n])
	sc.touchOff[0] = 0
}

// patchValues rewrites the value rows of exactly the nodes whose layer-0
// view contains changed — the only rows that can depend on its input —
// leaving every other row as the previous adversary left it. Each
// touched active node zeroes and recomputes its row as fillValues would;
// touched frozen nodes copy their predecessor's row, already patched
// because the touched-views list is in increasing node order.
func patchValues(g *Graph, sc *buildScratch, changed int) {
	adv := g.Adv
	n, w, wv, valsOff := g.n, g.w, g.wv, g.valsOff
	arena := g.store.arena
	for _, node := range sc.touchNodes[sc.touchOff[changed]:sc.touchOff[changed+1]] {
		m, i := node/n, node%n
		vrow := arena[valsOff+node*wv : valsOff+(node+1)*wv]
		if m > 0 && sc.cr[i] <= m {
			copy(vrow, arena[valsOff+(node-n)*wv:valsOff+(node-n+1)*wv])
			g.minVal[node] = g.minVal[node-n]
			continue
		}
		for x := range vrow {
			vrow[x] = 0
		}
		minV := model.Value(NoKnownCrash)
		layer0 := arena[sc.base[node] : sc.base[node]+w]
		for wi, word := range layer0 {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				v := adv.Inputs[wi*64+b]
				if v < 0 {
					continue
				}
				vrow[v>>6] |= 1 << uint(v&63)
				if v < minV {
					minV = v
				}
			}
		}
		g.minVal[node] = minV
	}
}

// fillValues computes the input-dependent tables — per-node value sets
// and minima — into g's arena and minVal slab, both already zeroed. It
// is the build step revive repeats for a new input vector over a reused
// pattern, reading the crash rounds and layer-0 offsets the pattern's
// full build left in sc.
func fillValues(g *Graph, sc *buildScratch) {
	adv := g.Adv
	n, h, w, wv, valsOff := g.n, g.Horizon, g.w, g.wv, g.valsOff
	arena := g.store.arena
	for m := 0; m <= h; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			vrow := arena[valsOff+node*wv : valsOff+(node+1)*wv]
			if m > 0 && sc.cr[i] <= m {
				copy(vrow, arena[valsOff+(node-n)*wv:valsOff+(node-n+1)*wv])
				g.minVal[node] = g.minVal[node-n]
				continue
			}
			minV := model.Value(NoKnownCrash)
			layer0 := arena[sc.base[node] : sc.base[node]+w]
			for wi, word := range layer0 {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << uint(b)
					v := adv.Inputs[wi*64+b]
					if v < 0 {
						continue
					}
					vrow[v>>6] |= 1 << uint(v&63)
					if v < minV {
						minV = v
					}
				}
			}
			g.minVal[node] = minV
		}
	}
}
