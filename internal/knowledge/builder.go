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
// difference is the lifecycle contract that Release adds. BuildTo builds
// a graph only to a given depth, and Grow extends it as its readers go
// deeper.
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
	// scratch currently describes — only full builds prepare sc, and
	// revive, patch and Grow read its crash rounds, delivery sets and
	// layout, so each is only sound while the scratch still matches the
	// graph. An interleaved full build over another adversary (legal:
	// multiple graphs from one Builder may be live) invalidates the
	// scratch without touching the spare or a live partial graph, and
	// these fields are how revive and Grow notice.
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
	return b.BuildTo(adv, horizon, horizon)
}

// BuildTo is Build that computes only the layers up to time depth (a
// revived spare keeps every layer it already holds): the graph answers
// queries at times ≤ its built layer, and Grow builds the later ones on
// demand, from the goroutine that called BuildTo, for as long as the
// builder's scratch still describes the graph's pattern. A depth beyond
// horizon builds the whole graph.
func (b *Builder) BuildTo(adv *model.Adversary, horizon, depth int) *Graph {
	depth = min(max(depth, 0), horizon)
	if g := b.revive(adv, horizon); g != nil {
		Grow(g, depth)
		return g
	}
	b.built++
	return build(adv, horizon, depth, &b.sc, b)
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
// only on the failure pattern and are reused verbatim, to the depth the
// spare was built to, and the value rows of those layers are recomputed
// as cheaply as the input diff allows. Identical inputs keep the parked
// value rows untouched; a single differing input takes the patch
// kernel, rewriting only the rows of views that have seen the changed
// process (both counted as patched); anything wider refills every built
// row (counted as revived). Layers past the spare's depth are built from
// the new inputs when the graph grows. Returns nil when the spare does
// not match (different pattern, horizon, process count, stale scratch,
// or inputs too wide for the reused value-set layout) — the caller then
// runs a full build.
func (b *Builder) revive(adv *model.Adversary, horizon int) *Graph {
	changed, diffs, ok := b.spareMatches(adv, horizon)
	if !ok {
		return nil
	}
	g := b.attachSpare(adv)
	nodes := (g.built + 1) * g.n
	switch diffs {
	case 0:
		b.patched++
	case 1:
		if b.sc.touchLen < nodes {
			b.sc.buildTouch(g.store.arena, g.n, g.w, nodes)
		}
		patchValues(g, &b.sc, changed, nodes)
		b.patched++
	default:
		fillValues(g, &b.sc, 0, g.built)
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

// buildScratch is the per-pattern working memory, reused across builds
// by Builders and pooled for New. Everything in it derives from the
// failure pattern, the horizon and n alone, so it serves every graph of
// that pattern — growing one layer by layer included — until the next
// full build prepares another; nothing in a Graph aliases it.
type buildScratch struct {
	cr    []int         // crash round per process (hoisted map lookups)
	delOf []*bitset.Set // crash-round delivery set per faulty process
	base  []int         // arena offset of each node's layer block, every layer to the horizon
	deadW []uint64      // deadW[ρ*w:(ρ+1)*w] = {j : crashRound(j) < ρ}, the hoisted "silent senders"
	crash [][]crasher   // crash[ρ] = processes crashing in round ρ

	// touched-views table (CSR): touchNodes[touchOff[p]:touchOff[p+1]]
	// lists, in increasing node order, every node below touchLen whose
	// layer-0 view contains process p — exactly the nodes whose value
	// row depends on p's input. Pattern-derived (layer-0 membership
	// never depends on inputs), so it shares the scratch's
	// scPat/scHorizon/scN validity; patchValues walks one row of it
	// instead of every node. Only a patch reads it, so a patch builds
	// it when it does not yet cover the patched graph's built nodes
	// (touchLen is 0 after a full build), and a stream of full builds
	// that never patches never pays for it. Increasing node order
	// guarantees a frozen node's predecessor — same layer-0 block, hence
	// same membership — is patched before the frozen node copies its
	// row.
	touchOff   []int
	touchNodes []int
	touchLen   int

	// one-word-per-64-processes frontier masks of the known-crash pass
	assignedW, uW []uint64
}

var scratchPool = sync.Pool{New: func() any { return &buildScratch{} }}

// resize returns s with length n, reallocating only when it is too
// short; the contents are whatever s held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// forget drops every pointer the scratch holds into the last pattern
// built — the delivery sets in delOf and crash — so a parked builder
// pins none of it. prepare refills them on the next full build.
func (sc *buildScratch) forget() {
	clear(sc.delOf[:cap(sc.delOf)])
	for _, c := range sc.crash[:cap(sc.crash)] {
		clear(c[:cap(c)])
	}
}

// prepare hoists everything build derives from the failure pattern alone:
// crash rounds, per-round crasher lists with their delivery sets, the
// cumulative dead-before-ρ masks, and the arena layout — the offset of
// every node's layer block up to horizon h, so a layer can be built
// without the ones after it. It returns the number of layer sets the
// layout holds, and marks the touched-views table stale: it describes
// the previous pattern.
func (sc *buildScratch) prepare(pat *model.FailurePattern, n, w, h int) (totalSets int) {
	sc.touchLen = 0
	sc.cr = resize(sc.cr, n)
	for i := range sc.cr {
		sc.cr[i] = model.NoCrash
	}
	sc.delOf = resize(sc.delOf, n)
	clear(sc.delOf)
	sc.crash = resize(sc.crash, h+1)
	for i := range sc.crash {
		sc.crash[i] = sc.crash[i][:0]
	}
	sc.deadW = resize(sc.deadW, (h+1)*w)
	clear(sc.deadW)
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
	sc.assignedW = resize(sc.assignedW, w)
	sc.uW = resize(sc.uW, w)

	// Every process has one layer set at time 0; an active node at time
	// m ≥ 1 owns m+1 fresh sets, a frozen one shares its predecessor's
	// block.
	sc.base = resize(sc.base, (h+1)*n)
	cursor := 0
	for m := 0; m <= h; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			if m > 0 && sc.cr[i] <= m {
				sc.base[node] = sc.base[node-n]
				continue
			}
			sc.base[node] = cursor
			cursor += (m + 1) * w
		}
	}
	return cursor / w
}

// ensure sizes the storage slabs, reusing released capacity when it
// fits. Nothing is zeroed: each layer's step overwrites every word and
// entry of the layer it builds, and the accessors refuse queries above
// the built layer. When the owning builder carries a meter, the
// capacity delta this call creates is accounted — ensure is the arena
// allocation choke point the governor watches.
func (st *storage) ensure(arenaLen, sets, views, ints int, owner *Builder) {
	var pre int64
	metered := owner != nil && owner.meter != nil
	if metered {
		pre = st.bytes()
	}
	st.arena = resize(st.arena, arenaLen)
	st.sets = resize(st.sets, sets)
	st.ptrs = resize(st.ptrs, sets)
	st.views = resize(st.views, views)
	st.ints = resize(st.ints, ints)
	if metered {
		owner.account(st.bytes() - pre)
	}
}

// build is the shared core behind New and Builder.BuildTo. It prepares
// the pattern's tables, sizes flat storage for every layer up to the
// horizon, and builds the layers up to depth (buildLayer); Grow builds
// the rest.
func build(adv *model.Adversary, horizon, depth int, sc *buildScratch, owner *Builder) *Graph {
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

	totalSets := sc.prepare(adv.Pattern, n, w, h)
	if owner != nil {
		owner.scPat, owner.scHorizon, owner.scN = adv.Pattern, h, n
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
		built: -1,
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
	growTo(g, sc, min(depth, h))
	return g
}

// growTo builds g's layers after its built one, up to m, in order.
func growTo(g *Graph, sc *buildScratch, m int) {
	for l := g.built + 1; l <= m; l++ {
		buildLayer(g, sc, l)
		g.built = l
	}
}

// buildLayer computes layer m of g from its layers below m and the
// pattern tables in sc, in one pass over the layer's nodes. An active
// node ⟨i,m⟩ unions the layer blocks of its round-m senders' time-(m−1)
// views (word-parallel over contiguous blocks), then runs its
// known-crash pass: for ρ = 1..m, U(ρ) is every process provably
// crashed by some seen ⟨h,ρ⟩ — the senders silent since before ρ, plus
// each round-ρ crasher whose delivery set misses a seen node — and a
// process's known crash round is the first ρ whose U(ρ) holds it. The
// same pass counts the hidden nodes of each layer: after ρ = ℓ, the
// assigned mask is exactly {j : knownCrash(j) ≤ ℓ}, so hidden(ℓ) =
// n − |seen(ℓ) ∪ assigned|. A frozen node (crashed in a round ≤ m)
// copies its predecessor's rows: its view, known crashes and failure
// count are unchanged, and its one new hidden count, of layer m, past
// its last seen layer, is n − fails. Last come the layer's value sets
// and minima (fillValues).
func buildLayer(g *Graph, sc *buildScratch, m int) {
	n, w, stride := g.n, g.w, g.Horizon+1
	st := &g.store
	arena := st.arena
	assigned, u := sc.assignedW, sc.uW
	for i := 0; i < n; i++ {
		node := m*n + i
		kc := g.knownCrash[node*n : node*n+n]
		hrow := g.hiddenCount[node*stride : node*stride+m+1]
		if m > 0 && sc.cr[i] <= m { // frozen: no round-m receive
			prev := node - n
			st.views[node] = View{Proc: i, Time: m, Layers: st.views[prev].Layers}
			copy(kc, g.knownCrash[prev*n:prev*n+n])
			copy(hrow, g.hiddenCount[prev*stride:prev*stride+m])
			f := g.fails[prev]
			g.fails[node] = f
			hrow[m] = n - f
			g.hc[node] = min(g.hc[prev], n-f)
			continue
		}

		// ---- view ----
		nb := sc.base[node]
		block := arena[nb : nb+(m+1)*w]
		clear(block)
		for j := 0; m > 0 && j < n; j++ {
			// Delivered(j, i, m) unrolled over the hoisted crash rounds:
			// alive senders (and i itself) always deliver, round-m
			// crashers per their delivery set.
			if sc.cr[j] < m || (sc.cr[j] == m && !sc.delOf[j].Contains(i)) {
				continue
			}
			prev := node - n - i + j // (m-1)*n + j
			pl := len(st.views[prev].Layers)
			for x, sw := range arena[sc.base[prev] : sc.base[prev]+pl*w] {
				block[x] |= sw
			}
		}
		block[m*w+i>>6] |= 1 << uint(i&63)
		first := nb / w
		for l := 0; l <= m; l++ {
			st.sets[first+l] = bitset.Wrap(block[l*w : (l+1)*w])
			st.ptrs[first+l] = &st.sets[first+l]
		}
		st.views[node] = View{Proc: i, Time: m, Layers: st.ptrs[first : first+m+1 : first+m+1]}

		// ---- known crashes, failures known, hidden counts ----
		for j := range kc {
			kc[j] = NoKnownCrash
		}
		clear(assigned)
		seen := 0
		for _, sw := range block[:w] {
			seen += bits.OnesCount64(sw)
		}
		minC := n - seen
		hrow[0] = minC
		for rho := 1; rho <= m; rho++ {
			seenW := block[rho*w : (rho+1)*w]
			copy(u, sc.deadW[rho*w:(rho+1)*w])
			for _, c := range sc.crash[rho] {
				if missesSeen(seenW, c.del.Words()) {
					u[c.proc>>6] |= 1 << uint(c.proc&63)
				}
			}
			// Ascending ρ ⇒ first assignment is the minimum.
			cnt := 0
			for x, uw := range u {
				for newly := uw &^ assigned[x]; newly != 0; newly &= newly - 1 {
					kc[x<<6|bits.TrailingZeros64(newly)] = rho
				}
				assigned[x] |= uw
				cnt += bits.OnesCount64(seenW[x] | assigned[x])
			}
			hrow[rho] = n - cnt
			minC = min(minC, n-cnt)
		}
		fails := 0
		for _, aw := range assigned {
			fails += bits.OnesCount64(aw)
		}
		g.fails[node] = fails
		g.hc[node] = minC
	}
	fillValues(g, sc, m, m)
}

// missesSeen reports whether a seen layer holds a process outside the
// delivery set del: a round-ρ crasher whose message one seen ⟨h,ρ⟩
// lacked is provably crashed. Words past del's end count as empty.
func missesSeen(seen, del []uint64) bool {
	for x, sw := range seen {
		if x < len(del) {
			sw &^= del[x]
		}
		if sw != 0 {
			return true
		}
	}
	return false
}

// buildTouch computes the per-pattern touched-views table of the first
// nodes nodes from the layer-0 offsets in sc.base and the layer-0 words
// of a graph of the pattern built at least that far: for each process
// p, the nodes whose layer-0 view contains p, in increasing node order.
// Two passes over the layer-0 words (count, then fill) lay the lists out
// as CSR in two reused int slabs; the end-cursor trick turns the fill
// cursors back into offsets with one shift.
func (sc *buildScratch) buildTouch(arena []uint64, n, w, nodes int) {
	sc.touchLen = nodes
	sc.touchOff = resize(sc.touchOff, n+1)
	clear(sc.touchOff)
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
	sc.touchNodes = resize(sc.touchNodes, sc.touchOff[n])
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

// patchValues rewrites the value rows of exactly the nodes below nodes
// whose layer-0 view contains changed — the only built rows that can
// depend on its input — leaving every other row as the previous
// adversary left it. The table lists nodes in increasing order, so a
// touched frozen node copies its predecessor's row after the
// predecessor was patched, and the walk stops at the first node past
// the built ones.
func patchValues(g *Graph, sc *buildScratch, changed, nodes int) {
	n, w, wv, valsOff := g.n, g.w, g.wv, g.valsOff
	arena, inputs := g.store.arena, g.Adv.Inputs
	for _, node := range sc.touchNodes[sc.touchOff[changed]:sc.touchOff[changed+1]] {
		if node >= nodes {
			return
		}
		vrow := arena[valsOff+node*wv : valsOff+(node+1)*wv]
		if m := node / n; m > 0 && sc.cr[node-m*n] <= m {
			copy(vrow, arena[valsOff+(node-n)*wv:valsOff+(node-n+1)*wv])
			g.minVal[node] = g.minVal[node-n]
			continue
		}
		clear(vrow)
		g.minVal[node] = valueRow(vrow, arena[sc.base[node]:sc.base[node]+w], inputs)
	}
}

// fillValues computes the input-dependent tables — per-node value sets
// and minima — of g's layers from through to, from each node's layer-0
// view words and g's inputs: the last step of a layer's build, and the
// step revive repeats for new inputs over a reused pattern. A frozen
// node copies its predecessor's row.
func fillValues(g *Graph, sc *buildScratch, from, to int) {
	n, w, wv, valsOff := g.n, g.w, g.wv, g.valsOff
	arena, inputs := g.store.arena, g.Adv.Inputs
	clear(arena[valsOff+from*n*wv : valsOff+(to+1)*n*wv])
	for m := from; m <= to; m++ {
		for i := 0; i < n; i++ {
			node := m*n + i
			vrow := arena[valsOff+node*wv : valsOff+(node+1)*wv]
			if m > 0 && sc.cr[i] <= m {
				copy(vrow, arena[valsOff+(node-n)*wv:valsOff+(node-n+1)*wv])
				g.minVal[node] = g.minVal[node-n]
				continue
			}
			g.minVal[node] = valueRow(vrow, arena[sc.base[node]:sc.base[node]+w], inputs)
		}
	}
}

// valueRow adds to vrow, zeroed by the caller, the value set of the
// processes in layer0, a view's layer-0 words, under inputs, and returns
// its minimum, or NoKnownCrash when it is empty.
func valueRow(vrow, layer0 []uint64, inputs []model.Value) model.Value {
	minV := model.Value(NoKnownCrash)
	for wi, word := range layer0 {
		for ; word != 0; word &= word - 1 {
			v := inputs[wi*64+bits.TrailingZeros64(word)]
			if v < 0 {
				continue
			}
			vrow[v>>6] |= 1 << uint(v&63)
			minV = min(minV, v)
		}
	}
	return minV
}
