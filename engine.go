package setconsensus

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"setconsensus/internal/agg"
	"setconsensus/internal/enum"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// Engine is the context-aware entry point to every execution backend. It
// resolves protocols by name through a Registry, runs them on the
// configured backend, shares one knowledge graph among the protocols run
// on an adversary, and batches whole protocol × adversary sweeps over a
// worker pool.
//
//	eng := setconsensus.New(setconsensus.WithDegree(2), setconsensus.WithCrashBound(3))
//	res, err := eng.Run(ctx, "optmin", adv)
//	results, err := eng.Sweep(ctx, []string{"optmin", "upmin", "floodmin"}, advs)
//
// Workloads too large to materialize stream through Engine.SweepSource,
// which shards a Source across the same worker pool and folds results
// into a constant-memory Summary. Each worker claims its next window of
// the source under one lock and enumerates it itself (see sweepExec).
//
// # Recycle contract
//
// Every run — Run's, a sweep's, the analysis compile's — executes into a
// worker's pooled buffer, and an aggregating sweep (SweepSource) is
// allocation-free per run and, over an exhaustive space, per adversary.
// That rests on four reuse rules:
//
//   - runBuffer: the Result a backend's run returns aliases the buffer.
//     A folding sweep folds it into the per-worker accumulators and
//     never lets it escape. Anything that hands Results out (Run, Sweep,
//     SweepSourceStream) hands out detached copies (detach): fresh
//     decisions, fresh extras, nothing of the buffer.
//   - Knowledge graphs have one lifetime per path. Aggregating sweeps
//     and the analysis compile build each graph in the worker's reused
//     Builder arena and release it as soon as the adversary's runs are
//     folded; consecutive adversaries sharing a failure pattern revive
//     or patch the previous arena. Run, Sweep and SweepSourceStream
//     build one fresh knowledge.New graph per adversary, shared by that
//     adversary's protocols and never recycled, because
//     Result.KnowledgeGraph lets callers keep it: it is the only graph a
//     detached Result may hold.
//   - Adversary arenas: where no Result escapes (SweepSource,
//     SweepSourceProgress, the analysis compile), a worker carves each
//     window it claims of an exhaustive space from its enum.Walker's one
//     reused arena (AppendReused), and its next claim overwrites them.
//     Nothing may hold such an adversary past its window: the Builder
//     and the search Compiler keep a copy of the previous adversary's
//     inputs and its pattern pointer, never the adversary. Failure
//     patterns are never reused, because revive and patch key on their
//     pointer. Run, Sweep and SweepSourceStream keep fresh slabs
//     (Append), because a kept Result holds its adversary, and so does
//     every plain stream: a random stream's model.Sampler carves its
//     adversaries from fresh slabs.
//   - Summary shards: each worker folds into private agg.Acc
//     accumulators and merges them into the Aggregator exactly once,
//     when its shard is drained (Summary.Merge is the public form of
//     the same contract). Nothing a worker retains outlives the merge.
type Engine struct {
	params   EngineParams
	reg      *Registry
	analyses *AnalysisRegistry
	backend  backend
	err      error // construction error, surfaced by every call

	// gov, when set, meters the byte capacity of everything the engine
	// recycles (builder arenas, run-kit slabs, sweep chunks) and gates
	// retention: while the governor sheds, release paths free buffers to
	// the GC instead of pooling them. nil means ungoverned.
	gov ResourceGovernor

	// kitMu/kitFree recycle the per-worker run state (runBuffer,
	// knowledge Builder) across runs and sweeps, so repeated sweeps on one
	// engine pay no per-sweep warm-up allocations. An explicit
	// bounded freelist instead of a sync.Pool: the governor's account
	// must see every buffer enter and leave, and sync.Pool's GC shedding
	// would strand accounted bytes it silently dropped.
	kitMu   sync.Mutex
	kitFree []*runKit

	// chunkMu/chunkFree recycle the sweepChunk arrays workers fill with
	// their claimed windows, bounded the same way; chunkBytes is the
	// engine's receipt of every chunk byte currently accounted to the
	// governor (pooled or in flight), so Close can return the remainder
	// even for chunks a panic dropped.
	chunkMu    sync.Mutex
	chunkFree  []*sweepChunk
	chunkBytes atomic.Int64

	// statBuilt/statRevived/statPatched accumulate the builder counts
	// harvested when a worker returns its kit — the engine-wide "graphs
	// rebuilt vs revived vs delta-patched" observability counters behind
	// Stats. They only move on the Builder path (aggregating sweeps and
	// the analysis compile); the fresh graphs of Run, Sweep and
	// SweepSourceStream are not counted.
	statBuilt   atomic.Int64
	statRevived atomic.Int64
	statPatched atomic.Int64

	// Pool hit-rate counters: a hit is a checkout served from the
	// freelist, a miss a fresh allocation. statKit* meters the
	// per-worker runKit pool (runBuffer + builder arena — the expensive
	// warm-up state), statChunk* the sweepChunk pool. While the
	// governor sheds, release paths drop buffers instead of repooling
	// them, so a falling hit rate is the observable symptom of sweeps
	// running over the soft memory ceiling.
	statKitHit    atomic.Int64
	statKitMiss   atomic.Int64
	statChunkHit  atomic.Int64
	statChunkMiss atomic.Int64

	mu         sync.Mutex
	protos     map[protoKey]protoEntry
	protoOrder []protoKey // FIFO eviction, bounded by protoCacheBound
}

// protoKey identifies a constructed protocol instance: same registry ref,
// same parameters, same (stateless) decision rule.
type protoKey struct {
	ref string
	p   Params
}

// protoEntry caches the outcome of ProtocolSpec.New for one key: the
// shared instance and its runtime name, or the construction error. The
// oracle backend consumes proto/err, the compact backends only the name.
type protoEntry struct {
	proto Protocol
	name  string
	err   error
}

// protoCacheBound bounds the protocol-instance cache. Keys vary only in
// (ref, n, t, k), so workloads hit a handful of entries; the bound just
// keeps pathological parameter sweeps from growing the map forever.
const protoCacheBound = 512

// insertBounded adds key→val to a FIFO-bounded cache, evicting oldest
// entries until the bound holds. It serves the protocol cache, the only
// cache the engine keeps: bound ≤ 0 disables insertion outright rather
// than evicting forever, and an existing key is left in place. Eviction
// copies the order slice down and zeroes the vacated tail slot —
// re-slicing the front off (order = order[1:]) would keep every evicted
// key reachable through the backing array for the life of the engine.
// Callers hold e.mu.
func insertBounded[K comparable, V any](m map[K]V, order *[]K, key K, val V, bound int) {
	if bound <= 0 {
		return
	}
	if _, ok := m[key]; ok {
		return
	}
	for len(*order) >= bound {
		delete(m, (*order)[0])
		n := copy(*order, (*order)[1:])
		var zero K
		(*order)[n] = zero
		*order = (*order)[:n]
	}
	m[key] = val
	*order = append(*order, key)
}

// New builds an Engine from the defaults plus the given options. Invalid
// configurations are not lost: every Run/Sweep on a misconfigured engine
// returns the validation error.
func New(opts ...Option) *Engine {
	cfg := engineConfig{params: DefaultEngineParams(), reg: DefaultRegistry(), analyses: DefaultAnalyses()}
	for _, o := range opts {
		o(&cfg)
	}
	return newEngine(cfg)
}

// NewEngine is the params-first constructor: it builds an Engine from a
// fully specified EngineParams and surfaces out-of-range values as an
// error immediately, instead of deferring them to the first Run/Sweep
// the way New's option form does. Long-running callers (the job service,
// anything that validates configuration at startup) should prefer it;
// the functional Options remain thin wrappers over the same struct.
// Additional options (registry overrides, field tweaks) apply on top of
// p before validation.
func NewEngine(p EngineParams, opts ...Option) (*Engine, error) {
	cfg := engineConfig{params: p, reg: DefaultRegistry(), analyses: DefaultAnalyses()}
	for _, o := range opts {
		o(&cfg)
	}
	e := newEngine(cfg)
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// newEngine is the shared construction path behind New and NewEngine.
func newEngine(cfg engineConfig) *Engine {
	e := &Engine{
		params:   cfg.params,
		reg:      cfg.reg,
		analyses: cfg.analyses,
		gov:      cfg.gov,
		protos:   make(map[protoKey]protoEntry),
	}
	if cfg.reg == nil {
		e.err = fmt.Errorf("engine: nil registry")
		return e
	}
	if cfg.analyses == nil {
		e.err = fmt.Errorf("engine: nil analysis registry")
		return e
	}
	if err := cfg.params.Validate(); err != nil {
		e.err = err
		return e
	}
	e.backend, e.err = backendFor(cfg.params.Backend)
	return e
}

// Params returns the engine's validated configuration.
func (e *Engine) Params() EngineParams { return e.params }

// Registry returns the registry the engine resolves protocol names in.
func (e *Engine) Registry() *Registry { return e.reg }

// runParams completes the per-run protocol parameters: n comes from the
// adversary, t and k from the engine configuration (t = n−1 when unset,
// the adversary's own failure count under PatternCrashBound). It first
// validates the adversary's structure — crashers in range and in order,
// crash rounds ≥ 1, deliveries in range, a pattern over len(Inputs)
// processes — so a malformed adversary a caller built by hand fails
// with an error instead of a panic inside a backend. The check
// allocates nothing on a valid adversary.
func (e *Engine) runParams(adv *model.Adversary) (Params, error) {
	if adv == nil {
		return Params{}, fmt.Errorf("engine: nil adversary")
	}
	if err := adv.Validate(-1, -1); err != nil {
		return Params{}, err
	}
	t := e.params.T
	switch {
	case t == PatternCrashBound:
		t = adv.Pattern.NumFailures()
	case t < 0:
		t = adv.N() - 1
	}
	p := Params{N: adv.N(), T: t, K: e.params.K}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// horizonFor picks the simulation horizon for a set of protocols on one
// parameterization: the engine override if set, otherwise the largest
// registered worst-case decision time.
func (e *Engine) horizonFor(specs []*ProtocolSpec, p Params) int {
	if e.params.Horizon > 0 {
		return e.params.Horizon
	}
	h := 0
	for _, s := range specs {
		if wc := s.WorstCaseTime(p); wc > h {
			h = wc
		}
	}
	return h
}

// protoFor resolves the shared protocol instance and runtime name for
// (ref, p), constructing and caching on first use. Protocol instances
// are pure decision rules (sim.Protocol's contract), so one instance
// serves every worker concurrently; the cache turns a per-run
// construct-and-format into a map hit.
func (e *Engine) protoFor(ref string, spec *ProtocolSpec, p Params) protoEntry {
	key := protoKey{ref: ref, p: p}
	e.mu.Lock()
	if ent, ok := e.protos[key]; ok {
		e.mu.Unlock()
		return ent
	}
	e.mu.Unlock()
	ent := protoEntry{name: spec.Name}
	if proto, err := spec.New(p); err == nil {
		ent.proto, ent.name = proto, proto.Name()
	} else {
		ent.err = err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.protos[key]; ok {
		return cached
	}
	insertBounded(e.protos, &e.protoOrder, key, ent, protoCacheBound)
	return ent
}

// EngineStats is a point-in-time snapshot of an engine's observability
// counters — the measurement feed behind the job service's expvar
// surface. GraphsRebuilt, GraphsRevived, and GraphsPatched count full
// knowledge-graph builds, same-pattern revives (value layer refilled),
// and delta patches (only the value rows touched by a single changed
// input rewritten) on the Builder path: aggregating sweeps and every
// analysis compile stage. The fresh graphs of Run, Sweep and
// SweepSourceStream are not counted.
// The pool hit-rate pairs meter the two freelists behind every sweep:
// RunKitHits/RunKitMisses count runKit (runBuffer + builder arena)
// checkouts served warm from the pool versus freshly allocated — one per
// sweep worker, analysis compile worker and Run call, materializing
// sweeps included — and ChunkHits/ChunkMisses the same for the
// sweepChunk arrays workers fill, one per claimed window. A steady
// sweep's hit rate converges to ~1; misses growing mid-sweep mean the
// governor is shedding pooled buffers over the soft memory ceiling.
type EngineStats struct {
	GraphsRebuilt int64 `json:"graphsRebuilt"`
	GraphsRevived int64 `json:"graphsRevived"`
	GraphsPatched int64 `json:"graphsPatched"`
	RunKitHits    int64 `json:"runKitHits"`
	RunKitMisses  int64 `json:"runKitMisses"`
	ChunkHits     int64 `json:"chunkHits"`
	ChunkMisses   int64 `json:"chunkMisses"`

	// Deprecated: the engine keeps no knowledge-graph cache, so
	// CachedGraphs always reads 0. It stays only until the benchmark,
	// its last reader, retires the engine.cached_graphs metric.
	CachedGraphs int `json:"cachedGraphs"`
}

// Stats snapshots the engine's counters. Worker-local builder counts
// fold in when a sweep or analysis returns its kit, so a snapshot taken
// mid-sweep may trail the in-flight work by up to one worker shard.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		GraphsRebuilt: e.statBuilt.Load(),
		GraphsRevived: e.statRevived.Load(),
		GraphsPatched: e.statPatched.Load(),
		RunKitHits:    e.statKitHit.Load(),
		RunKitMisses:  e.statKitMiss.Load(),
		ChunkHits:     e.statChunkHit.Load(),
		ChunkMisses:   e.statChunkMiss.Load(),
	}
}

// Run resolves ref in the registry and executes it against adv on the
// configured backend. It is a one-adversary sweep: the run executes into
// a pooled worker buffer on the sweep's own per-adversary path
// (sweepAdversary), and the Result is a detached copy the caller may
// keep, holding a fresh knowledge.New graph. A panicking protocol
// surfaces as a typed error, as in a sweep.
func (e *Engine) Run(ctx context.Context, ref string, adv *Adversary) (*Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := e.reg.Lookup(ref)
	if err != nil {
		return nil, err
	}
	var res *Result
	err = e.withKit("engine: run", func(kit *runKit) error {
		w := sweepWorker{refs: []string{ref}, specs: []*ProtocolSpec{spec}, kit: kit,
			deliver: func(_, _ int, r *Result) { res = r }}
		return e.sweepAdversary(ctx, &w, adv, 0)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Sweep runs every named protocol against every adversary and returns
// the results in deterministic order: adversary-major, protocol-minor
// (results[a*len(refs)+p]). Adversaries are distributed over a worker
// pool of the configured parallelism; within one adversary all protocols
// share a single knowledge graph. The first error (including context
// cancellation) aborts the sweep.
//
// Empty input handling is asymmetric by design: refs name the experiment
// and must be non-empty (an error), while advs is the workload and may
// legitimately be empty — the sweep returns an empty, non-nil slice and
// no error.
func (e *Engine) Sweep(ctx context.Context, refs []string, advs []*Adversary) ([]*Result, error) {
	results := make([]*Result, len(refs)*len(advs))
	err := e.sweep(ctx, refs, SliceSource(advs...), nil, func(advIdx, refIdx int, r *Result) {
		results[advIdx*len(refs)+refIdx] = r
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepSource streams every adversary of src through every named
// protocol and folds the results online into a Summary. The source is
// sharded across the worker pool in deterministic windows and never
// materialized: memory is bounded by the Summary, the in-flight chunks,
// and whatever the source itself retains — never by the number of
// results. Per adversary, all protocols share one knowledge graph, as
// in Sweep.
//
// Cancelling ctx stops the workers at their next adversary, but the
// sweep returns only once everything it started has finished — each
// worker, and the source iterator the workers pull any source but an
// exhaustive space from: a cancelled sweep waits for the iterator's
// current step to return, so a Source must not block
// indefinitely between yields.
//
// This is the allocation-free sweep variant: no Result escapes, so every
// run folds straight out of its worker's pooled buffer into private
// accumulators, and the shards merge into the Summary once per worker —
// there is no per-run aggregator lock, so throughput scales with
// Parallelism.
func (e *Engine) SweepSource(ctx context.Context, refs []string, src Source) (*Summary, error) {
	return e.SweepSourceProgress(ctx, refs, src, 0, nil)
}

// SweepSourceStream is SweepSource with per-result delivery instead of
// aggregation: emit is called once per finished run, in completion
// order, from a single goroutine at a time. Emitted Results are detached
// copies (emit may retain them), so this path pays the per-run
// allocations the aggregating SweepSource avoids. Streaming
// SliceSource(advs...) is Sweep with delivery in completion order.
// Cancelling ctx stops the sweep as SweepSource describes.
func (e *Engine) SweepSourceStream(ctx context.Context, refs []string, src Source, emit func(*Result)) error {
	if src == nil {
		return fmt.Errorf("engine: nil source")
	}
	var mu sync.Mutex
	return e.sweep(ctx, refs, src, nil, func(_, _ int, r *Result) {
		mu.Lock()
		defer mu.Unlock()
		emit(r)
	})
}

// sourceChunk bounds how many adversaries a worker pulls per claim from
// a plain stream. Claims of that size amortize the claim lock on huge
// streams without starving workers on small ones.
const sourceChunk = 32

// chunkSizeFor picks the claim size of plain streams: small known
// workloads go one adversary at a time (maximum parallelism), large
// or unknown ones in fixed chunks. Degenerate counts fall back to the
// streaming chunk size: a Source whose Count lies (reports known with
// count ≤ 0 yet yields adversaries) or a clamped-to-zero worker total
// must degrade to the unknown-count behavior, not divide by zero or
// starve the pool.
func chunkSizeFor(count int, known bool, workers int) int {
	c := sourceChunk
	if known && count > 0 {
		if workers < 1 {
			workers = 1
		}
		c = count / (workers * 4)
		if c < 1 {
			c = 1
		}
		if c > sourceChunk {
			c = sourceChunk
		}
	}
	return c
}

// windowCap bounds a window of an exhaustive space. A window is one whole
// pattern block, so its worker full-builds the block's graph once and
// patches every other adversary; only a block larger than windowCap is
// cut, into block-relative slices of windowCap adversaries, so one huge
// block still spreads over the workers and a chunk array stays small.
// Such a slice starts with a full build unless its worker's builder
// still holds the block's pattern, so at Parallelism > 1 a cut block may
// be built once per slice.
const windowCap = 256

// sweepChunk is one claimed work unit: a run of consecutive adversaries
// and the stream index of the first. Chunks recycle through the engine's
// bounded freelist — a worker takes one per claim, fills it with its
// window, and returns it once the window's last adversary is processed —
// so a sweep allocates a bounded handful of chunk arrays regardless of
// workload size. metered is the chunk's share of the governor's account
// (8 bytes per pointer of capacity), zero on ungoverned engines.
type sweepChunk struct {
	base    int
	advs    []*Adversary
	metered int64
}

// chunkPoolBound bounds the chunk freelist: a sweep's worker holds at
// most one chunk at a time, so anything beyond that headroom is churn
// from a finished sweep.
func (e *Engine) chunkPoolBound() int { return e.params.Parallelism }

// newChunk takes a pooled chunk ready to hold size adversaries starting
// at stream index base, metering the engine's chunk-pool hit rate and,
// under a governor, the array capacity it creates.
func (e *Engine) newChunk(base, size int) *sweepChunk {
	e.chunkMu.Lock()
	var c *sweepChunk
	if n := len(e.chunkFree); n > 0 {
		c = e.chunkFree[n-1]
		e.chunkFree[n-1] = nil
		e.chunkFree = e.chunkFree[:n-1]
	}
	e.chunkMu.Unlock()
	if c == nil {
		c = new(sweepChunk)
		e.statChunkMiss.Add(1)
	} else {
		e.statChunkHit.Add(1)
	}
	c.base = base
	if cap(c.advs) < size {
		c.advs = make([]*Adversary, 0, size)
		if e.gov != nil {
			if d := 8*int64(cap(c.advs)) - c.metered; d != 0 {
				e.gov.Grow(d)
				e.chunkBytes.Add(d)
				c.metered += d
			}
		}
	} else {
		c.advs = c.advs[:0]
	}
	return c
}

// dropChunk returns a retired chunk's accounted bytes to the governor.
func (e *Engine) dropChunk(c *sweepChunk) {
	if e.gov != nil && c.metered != 0 {
		e.gov.Shrink(c.metered)
		e.chunkBytes.Add(-c.metered)
		c.metered = 0
	}
}

// releaseChunk clears the adversary pointers — a pooled array must not
// pin a dropped workload — and returns the chunk to the freelist,
// unless the governor is shedding (or the freelist is full), in which
// case the chunk is dropped and its bytes returned to the account.
func (e *Engine) releaseChunk(c *sweepChunk) {
	clear(c.advs[:cap(c.advs)])
	c.advs = c.advs[:0]
	if e.gov != nil && !e.gov.Retain() {
		e.dropChunk(c)
		return
	}
	e.chunkMu.Lock()
	if len(e.chunkFree) < e.chunkPoolBound() {
		e.chunkFree = append(e.chunkFree, c)
		e.chunkMu.Unlock()
		return
	}
	e.chunkMu.Unlock()
	e.dropChunk(c)
}

// spaceRange resolves the stream offsets [from, to) of an exhaustive
// space's source — a SpaceSource, or any nesting of RangeSource and
// LimitSource over one — to the offsets [lo, hi) of the space itself,
// so a sweep (its claim cursor) and RangeSource.Seq enter the
// enumeration directly at lo. ok is false for any other source.
func spaceRange(src Source, from, to int) (space Space, lo, hi int, ok bool) {
	switch s := src.(type) {
	case *spaceSource:
		return s.space, from, to, true
	case *rangeSource:
		return spaceRange(s.src, enum.WindowEnd(s.offset, from), enum.WindowEnd(s.offset, min(s.limit, to)))
	case *limitSource:
		return spaceRange(s.src, from, min(s.n, to))
	}
	return Space{}, 0, 0, false
}

// sweepClaimer hands out one sweep's work, a window per claim, under one
// mutex. An exhaustive space is cut by a shared window cursor
// (spaceRange), and the claiming worker enumerates its window outside
// the lock: into fresh slabs when the sweep's Results escape, since a
// Result keeps its adversary, and otherwise (reuse) into its walker's
// one reused arena, which the next claim overwrites. Any other source is
// pulled under the lock, a filled chunk per claim, from one iter.Pull
// over its Seq. The pull runs caller code with the lock held, so every
// path releases the lock by a deferred unlock — a worker unwinding out
// of a claim must not strand the others; a panic in that code is
// recovered inside the pulled iterator, with its stack, and fails the
// sweep.
type sweepClaimer struct {
	mu     sync.Mutex
	cursor *enum.Cursor // nil for a plain stream
	origin int          // the space offset of the stream's first adversary
	reuse  bool         // carve windows from each worker's reused arena
	pull   func() (*sweepChunk, bool)
	stop   func()
}

// newClaimer builds src's claimer; reuse is sweepExec's. fail receives a
// panic recovered from the source's iterator; it must cancel the sweep.
func newClaimer(e *Engine, src Source, count int, known bool, workers int, reuse bool, fail func(error)) *sweepClaimer {
	cl := new(sweepClaimer)
	if space, lo, hi, ok := spaceRange(src, 0, math.MaxInt); ok {
		cl.cursor, cl.origin, cl.reuse = enum.NewCursor(space, lo, hi), lo, reuse
		return cl
	}
	size := chunkSizeFor(count, known, workers)
	// The pulled iterator fills whole chunks, so a claim switches into it
	// once, not once per adversary. It is suspended only while it hands a
	// chunk over, so it holds a partly filled chunk only when a panic
	// unwinds it, and then releases it.
	cl.pull, cl.stop = iter.Pull(func(yield func(*sweepChunk) bool) {
		var c *sweepChunk
		// Source iterators run arbitrary workload code: a panic there
		// becomes a typed sweep failure, its stack captured here, on the
		// iterator's own frames, and the pulled stream simply ends.
		defer func() {
			if pe := govern.Recovered("engine: sweep source", recover()); pe != nil {
				fail(pe)
			}
			if c != nil {
				e.releaseChunk(c)
			}
		}()
		handOver := func() bool {
			full := c
			c = nil
			return yield(full)
		}
		next := 0
		for adv := range src.Seq() {
			if c == nil {
				c = e.newChunk(next, size)
			}
			c.advs = append(c.advs, adv)
			next++
			if len(c.advs) == size && !handOver() {
				return
			}
		}
		if c != nil {
			handOver()
		}
	})
	return cl
}

// close finishes the pulled iterator, if any: it returns only once the
// source's Seq has returned. Call it after every worker has stopped.
func (cl *sweepClaimer) close() {
	if cl.stop != nil {
		cl.stop()
	}
}

// claim takes the next window and returns it in a pooled chunk, nil once
// the source is exhausted. walker is the calling worker's own.
func (cl *sweepClaimer) claim(e *Engine, walker *enum.Walker) *sweepChunk {
	if cl.cursor == nil {
		return cl.claimPulled()
	}
	w, ok := cl.nextWindow()
	if !ok {
		return nil
	}
	c := e.newChunk(w.Base-cl.origin, w.Len)
	if cl.reuse {
		c.advs = walker.AppendReused(c.advs, w)
	} else {
		c.advs = walker.Append(c.advs, w)
	}
	return c
}

// nextWindow cuts the next window under the lock.
func (cl *sweepClaimer) nextWindow() (enum.Window, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.cursor.Next(windowCap)
}

// claimPulled pulls the next chunk of a plain stream under the lock.
func (cl *sweepClaimer) claimPulled() *sweepChunk {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	c, _ := cl.pull()
	return c
}

// chunks is one worker's sequence of claimed chunks. Each chunk goes
// back to the pool when the loop body moves on or breaks; a chunk whose
// body panicked is not repooled (Close settles its bytes). Claims stop
// once ctx is done.
func (cl *sweepClaimer) chunks(ctx context.Context, e *Engine) iter.Seq[*sweepChunk] {
	return func(yield func(*sweepChunk) bool) {
		var walker enum.Walker
		for sweepCancelled(ctx) == nil {
			c := cl.claim(e, &walker)
			if c == nil {
				return
			}
			more := yield(c)
			e.releaseChunk(c)
			if !more {
				return
			}
		}
	}
}

// sweepCancelled reports a sweep context's cancellation without its
// lock: every worker polls the one sweep context per adversary, and
// Context.Err takes a mutex they would contend for, while a
// non-blocking receive on the Done channel only reads it.
func sweepCancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// sweepExec is the executor skeleton behind every sweep and the
// analysis compile: it resolves the protocol specs, builds the sweep's
// claimer, runs the worker pool — each worker claiming windows and
// enumerating them itself — and funnels out the first error (or context
// cancellation). body runs once per worker, inside withKit under the
// label what, owns all worker-local state, and ranges over its own chunk
// sequence. reuse asserts that body is done with a chunk's adversaries
// when the loop moves on and keeps nothing of them — no Result escapes —
// so an exhaustive space's windows are carved from each worker's reused
// arena. sweepExec starts no goroutine but its workers, and returns only
// once every worker has returned and the source iterator it pulled, if
// any, has finished.
func (e *Engine) sweepExec(ctx context.Context, what string, refs []string, src Source, reuse bool, body func(ctx context.Context, specs []*ProtocolSpec, kit *runKit, chunks iter.Seq[*sweepChunk]) error) error {
	if e.err != nil {
		return e.err
	}
	if len(refs) == 0 {
		return fmt.Errorf("engine: sweep with no protocols")
	}
	specs := make([]*ProtocolSpec, len(refs))
	for i, ref := range refs {
		spec, err := e.reg.Lookup(ref)
		if err != nil {
			return err
		}
		specs[i] = spec
	}
	count, known := src.Count()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.params.Parallelism
	if workers < 1 {
		workers = 1
	}
	// A known count bounds useful parallelism — but only a trustworthy
	// one: a lying count of zero must not clamp the pool to nothing
	// while the stream yields adversaries anyway.
	if known && count > 0 && workers > count {
		workers = count
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	cl := newClaimer(e, src, count, known, workers, reuse, fail)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.withKit(what, func(kit *runKit) error {
				return body(ctx, specs, kit, cl.chunks(ctx, e))
			}); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	cl.close()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// withKit runs body on a runKit checked out of the engine's pool: the
// one panic boundary of every run. A panic in body — a protocol's, or a
// caller's emit — becomes a typed *govern.PanicError labelled what, its
// stack captured here while the panic-origin frames are still on it,
// and the kit, which the panic may have left mid-mutation, is discarded
// rather than repooled; the other workers of a sweep then drain via its
// shared cancel, and the process lives on. Otherwise the kit goes back
// to the pool.
func (e *Engine) withKit(what string, body func(kit *runKit) error) (err error) {
	kit := e.getKit()
	defer func() {
		if pe := govern.Recovered(what, recover()); pe != nil {
			err = pe
			e.discardKit(kit)
			return
		}
		e.putKit(kit)
	}()
	return body(kit)
}

// sweepWorker is one sweep worker's state: the sweep's protocols, the
// worker's kit and params memo, and where its runs go. With deliver set
// the sweep's Results escape (Sweep, SweepSourceStream, Run): deliver
// receives each run as a detached Result tagged with its adversary's
// stream index and its protocol's index. Otherwise each run folds into
// shard, the worker's private accumulators for a (SweepSource,
// SweepSourceProgress).
type sweepWorker struct {
	refs    []string
	specs   []*ProtocolSpec
	kit     *runKit
	memo    protoMemo
	a       *Aggregator
	shard   []agg.Acc
	deliver func(advIdx, refIdx int, r *Result)
}

// sweep is the one worker body behind every sweep entry point: each
// worker runs every protocol against every adversary of the windows it
// claims (sweepAdversary). Exactly one of a and deliver is set. A
// folding worker bumps its shard — one agg.Acc per protocol, plain
// integer bumps: no Result escapes, no lock is taken, no map is written
// — and merges it into a exactly once, when its chunk sequence ends; the
// merge is the only synchronization point of the whole sweep besides
// the claims, so throughput scales with Parallelism instead of
// flatlining on an aggregator lock.
func (e *Engine) sweep(ctx context.Context, refs []string, src Source, a *Aggregator, deliver func(advIdx, refIdx int, r *Result)) error {
	return e.sweepExec(ctx, "engine: sweep worker", refs, src, deliver == nil, func(ctx context.Context, specs []*ProtocolSpec, kit *runKit, chunks iter.Seq[*sweepChunk]) error {
		w := sweepWorker{refs: refs, specs: specs, kit: kit, a: a, deliver: deliver}
		if a != nil {
			w.shard = make([]agg.Acc, len(refs))
		}
		for chunk := range chunks {
			for i, adv := range chunk.advs {
				if err := e.sweepAdversary(ctx, &w, adv, chunk.base+i); err != nil {
					return err
				}
			}
			if a != nil {
				a.advsDone(len(chunk.advs))
			}
		}
		if a != nil {
			a.mergeShard(w.shard)
		}
		return nil
	})
}

// runKit is the pooled per-worker state of every run: the runBuffer the
// backend runs into and the worker's knowledge Builder, which holds no
// storage until its first Build (only folding sweeps and the analysis
// compile build in it). Kits recycle through the engine's bounded
// freelist so repeated sweeps reuse warmed-up buffers; bufBytes is the
// runBuffer capacity last reported to the governor.
type runKit struct {
	buf      *runBuffer
	builder  *knowledge.Builder
	bufBytes int64
}

// kitPoolBound bounds the kit freelist: one sweep checks out at most
// Parallelism kits, so that is the steady-state working set worth
// keeping warm.
func (e *Engine) kitPoolBound() int { return e.params.Parallelism }

func (e *Engine) getKit() *runKit {
	e.kitMu.Lock()
	var kit *runKit
	if n := len(e.kitFree); n > 0 {
		kit = e.kitFree[n-1]
		e.kitFree[n-1] = nil
		e.kitFree = e.kitFree[:n-1]
	}
	e.kitMu.Unlock()
	if kit != nil {
		e.statKitHit.Add(1)
		return kit
	}
	e.statKitMiss.Add(1)
	kit = &runKit{buf: new(runBuffer), builder: knowledge.NewBuilder()}
	if e.gov != nil {
		kit.builder.SetMeter(e.gov)
	}
	return kit
}

// putKit harvests the kit's builder counters, settles its runBuffer
// byte account, and returns it to the freelist — unless the governor is
// shedding (or the freelist is full), in which case the kit is
// discarded and every byte it held goes back to the account.
func (e *Engine) putKit(kit *runKit) {
	e.harvestKit(kit)
	if e.gov != nil {
		if d := kit.buf.bytes() - kit.bufBytes; d != 0 {
			e.gov.Grow(d)
			kit.bufBytes += d
		}
		if !e.gov.Retain() {
			e.dropKit(kit)
			return
		}
	}
	e.kitMu.Lock()
	if len(e.kitFree) < e.kitPoolBound() {
		e.kitFree = append(e.kitFree, kit)
		e.kitMu.Unlock()
		return
	}
	e.kitMu.Unlock()
	e.dropKit(kit)
}

// harvestKit folds the kit's builder counts into the engine counters.
func (e *Engine) harvestKit(kit *runKit) {
	built, revived, patched := kit.builder.TakeCounts()
	e.statBuilt.Add(int64(built))
	e.statRevived.Add(int64(revived))
	e.statPatched.Add(int64(patched))
}

// dropKit releases a retired kit's accounted bytes: the builder's whole
// storage account (covering graphs a panic never Released) and the
// runBuffer capacity.
func (e *Engine) dropKit(kit *runKit) {
	kit.builder.Discard()
	if e.gov != nil && kit.bufBytes != 0 {
		e.gov.Shrink(kit.bufBytes)
		kit.bufBytes = 0
	}
}

// discardKit retires a kit whose state may be corrupt (a recovered
// panic mid-fold): counters are still harvested, then everything the
// kit holds is released rather than repooled.
func (e *Engine) discardKit(kit *runKit) {
	e.harvestKit(kit)
	e.dropKit(kit)
}

// Close releases every pooled buffer the engine retains — warm kits and
// sweep chunks — and returns their accounted bytes to the governor,
// including bytes from chunks a panicking worker dropped mid-sweep. The
// engine stays usable afterwards (pools just start cold); long-running
// processes that build per-job engines against one shared governor must
// call it when the job ends, or the account would drift upward with
// every retired engine's warm buffers. Safe to call repeatedly.
func (e *Engine) Close() {
	e.kitMu.Lock()
	kits := e.kitFree
	e.kitFree = nil
	e.kitMu.Unlock()
	for _, kit := range kits {
		e.dropKit(kit)
	}
	e.chunkMu.Lock()
	e.chunkFree = nil
	e.chunkMu.Unlock()
	if e.gov != nil {
		if b := e.chunkBytes.Swap(0); b != 0 {
			e.gov.Shrink(b)
		}
	}
}

// protoMemo is a worker-local memo of the resolved protocol entries and
// shared horizon for one Params value. Within a sweep the params only
// change when the workload varies n or t per adversary, so the memo
// keeps the hot loop off the engine-global cache mutex entirely.
type protoMemo struct {
	valid   bool
	p       Params
	horizon int
	entries []protoEntry
}

// memoFor refreshes the memo when the params change.
func (e *Engine) memoFor(memo *protoMemo, refs []string, specs []*ProtocolSpec, p Params) {
	if memo.valid && memo.p == p {
		return
	}
	memo.entries = memo.entries[:0]
	for refIdx, spec := range specs {
		memo.entries = append(memo.entries, e.protoFor(refs[refIdx], spec, p))
	}
	memo.horizon = e.horizonFor(specs, p)
	memo.p, memo.valid = p, true
}

// sweepAdversary runs every protocol of a sweep against one adversary
// on the worker's kit, all of them sharing one knowledge graph, and
// hands each run on. The context is polled once per adversary, before
// its first run. The one branch is whether the Results escape. If they
// do, the graph is a fresh knowledge.New graph, never recycled because
// a kept Result may hold it, and each run goes to deliver as a detached
// copy carrying the adversary string, rendered once per adversary. If
// not, the graph is built in the kit's reused Builder arena — revived or
// patched from the previous adversary's when they share a failure
// pattern — and released as soon as the adversary's runs have folded,
// which is safe because nothing escapes the fold.
func (e *Engine) sweepAdversary(ctx context.Context, w *sweepWorker, adv *Adversary, advIdx int) error {
	if err := sweepCancelled(ctx); err != nil {
		return err
	}
	p, err := e.runParams(adv)
	if err != nil {
		return err
	}
	e.memoFor(&w.memo, w.refs, w.specs, p)
	var (
		g      *knowledge.Graph
		advStr string
	)
	switch {
	case w.deliver != nil:
		advStr = adv.String()
		if e.backend.needsGraph() {
			g = knowledge.New(adv, w.memo.horizon)
		}
	case e.backend.needsGraph():
		g = w.kit.builder.Build(adv, w.memo.horizon)
		defer g.Release()
	}
	for refIdx, spec := range w.specs {
		res, err := e.runInto(w.kit.buf, w.refs[refIdx], spec, w.memo.entries[refIdx], p, adv, g)
		if err != nil {
			return err
		}
		if w.deliver != nil {
			w.deliver(advIdx, refIdx, detach(res, advStr))
		} else {
			w.a.fold(&w.shard[refIdx], refIdx, res, w.kit.buf)
		}
	}
	return nil
}

// runInto fills buf's request for one run and executes it on the
// engine's backend. The Result aliases buf.
func (e *Engine) runInto(buf *runBuffer, ref string, spec *ProtocolSpec, ent protoEntry, p Params, adv *Adversary, g *knowledge.Graph) (*Result, error) {
	buf.req = runRequest{ref: ref, spec: spec, protoEntry: ent, params: p, adv: adv, graph: g}
	return e.backend.run(buf)
}

// sweepProgressInterval is the default snapshot period of
// SweepSourceProgress when the caller passes every ≤ 0.
const sweepProgressInterval = 100 * time.Millisecond

// SweepSourceProgress is SweepSource with a streaming progress feed —
// the aggregating-sweep analogue of AnalyzeStream. While the sweep runs,
// progress receives throttled SweepProgress snapshots every interval
// (every ≤ 0 means the 100ms default), serialized from one goroutine at
// a time, followed by exactly one final snapshot after the last run has
// folded. Every snapshot's Total is the source's Count, when it reports
// one. The run path itself is untouched: workers add to one atomic
// per claimed window and a side ticker reads it, so progress costs the
// hot loop nothing measurable. Cancelling ctx stops the sweep as
// SweepSource describes: at the workers' next adversary, and only after
// the source iterator's current step returns.
func (e *Engine) SweepSourceProgress(ctx context.Context, refs []string, src Source, every time.Duration, progress func(SweepProgress)) (*Summary, error) {
	if e.err != nil {
		return nil, e.err
	}
	if src == nil {
		return nil, fmt.Errorf("engine: nil source")
	}
	a, err := e.NewAggregator(src.Label(), refs)
	if err != nil {
		return nil, err
	}
	a.total, _ = src.Count()
	var stop, done chan struct{}
	if progress != nil {
		if every <= 0 {
			every = sweepProgressInterval
		}
		stop, done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(every)
			defer t.Stop()
			last := SweepProgress{Adversaries: -1}
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if p := a.Progress(); p != last {
						last = p
						progress(p)
					}
				}
			}
		}()
	}
	err = e.sweep(ctx, refs, src, a, nil)
	if progress != nil {
		// Quiesce the ticker before the closing snapshot so emission
		// stays serialized and the final snapshot is the last delivered.
		close(stop)
		<-done
	}
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(a.Progress())
	}
	return a.Summary(), nil
}
