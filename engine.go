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
// worker's pooled kit (runKit), and an aggregating sweep (SweepSource)
// is allocation-free per run and, over an exhaustive space, per
// adversary. That rests on four reuse rules:
//
//   - runBuffer: the Result a backend's run returns aliases the buffer.
//     A folding sweep folds it into the per-worker accumulators and
//     never lets it escape. Anything that hands Results out (Run, Sweep,
//     SweepSourceStream) hands out detached copies (detach): fresh
//     decisions, fresh extras, nothing of the buffer.
//   - Knowledge graphs have one lifetime. Every path builds each
//     adversary's graph in the worker's reused Builder arena, shares it
//     among that adversary's protocols, and releases it once their runs
//     are done; consecutive adversaries sharing a failure pattern revive
//     or patch the previous arena. No Result keeps a graph: detach takes
//     the adversary string and GraphStats once per adversary while the
//     graph is built, and Result.KnowledgeGraph rebuilds an equal graph
//     on demand. Revive and patch key on the failure pattern's pointer,
//     so a kit's Builder forgets its revive chain when the kit returns
//     to the pool: a caller may change a pattern in place between two
//     calls, never during one.
//   - Adversary arenas: each worker's kit holds one window buffer, and
//     every claim refills it with the worker's next window. Where no
//     Result escapes (SweepSource, SweepSourceProgress, the analysis
//     compile), a worker carves each window it claims of an exhaustive
//     space from its enum.Walker's one reused arena (AppendReused), and
//     its next claim overwrites them. Nothing may hold such an adversary
//     past its window: the Builder and the search Compiler keep a copy
//     of the previous adversary's inputs and its pattern pointer, never
//     the adversary. Failure patterns are never reused, because revive
//     and patch key on their pointer. Run, Sweep and SweepSourceStream
//     keep fresh slabs (Append), because a kept Result holds its
//     adversary, and so does every plain stream: a random stream's
//     model.Sampler carves its adversaries from fresh slabs.
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
	// recycles (builder arenas, run buffers, window buffers) and gates
	// retention: while the governor sheds, release paths free buffers to
	// the GC instead of pooling them. nil means ungoverned.
	gov ResourceGovernor

	// kitMu/kitFree recycle the per-worker run state (runBuffer,
	// knowledge Builder, window buffer) across runs and sweeps, so
	// repeated sweeps on one engine pay no per-sweep warm-up
	// allocations. An explicit bounded freelist instead of a sync.Pool:
	// the governor's account must see every buffer enter and leave, and
	// sync.Pool's GC shedding would strand accounted bytes it silently
	// dropped.
	kitMu   sync.Mutex
	kitFree []*runKit

	// statBuilt/statRevived/statPatched accumulate the builder counts
	// harvested when a worker returns its kit — the engine-wide "graphs
	// rebuilt vs revived vs delta-patched" observability counters behind
	// Stats.
	statBuilt   atomic.Int64
	statRevived atomic.Int64
	statPatched atomic.Int64

	// Reuse hit-rate counters. statKit* meters the runKit pool: a hit
	// is a checkout served from the freelist, a miss a fresh kit.
	// statChunk* meters the kits' window buffers: a hit is a claimed
	// window that fit its worker's buffer, a miss one that grew it.
	// While the governor sheds, release paths drop kits instead of
	// repooling them, so a falling hit rate is the observable symptom
	// of sweeps running over the soft memory ceiling.
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
// input rewritten). Every path builds its graphs in a worker's Builder,
// so on the Oracle backend the three sum to one graph per adversary run
// — by Run, every sweep and every analysis compile stage.
// The hit-rate pairs meter the one pool behind every run:
// RunKitHits/RunKitMisses count runKit (runBuffer, builder arena and
// window buffer) checkouts served warm from the pool versus freshly
// allocated — one per sweep worker, analysis compile worker and Run
// call — and ChunkHits/ChunkMisses count claimed windows that fit their
// worker's window buffer versus ones that grew it. A steady sweep's hit
// rates converge to ~1; misses growing mid-sweep mean the governor is
// shedding pooled kits over the soft memory ceiling.
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
// a pooled worker kit on the sweep's own per-adversary path
// (sweepAdversary), and the Result is a detached copy the caller may
// keep. A panicking protocol surfaces as a typed error, as in a sweep.
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
// materialized: memory is bounded by the Summary, the workers' windows,
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
// block still spreads over the workers and a window buffer stays small.
// Such a slice starts with a full build unless its worker's builder
// still holds the block's pattern, so at Parallelism > 1 a cut block may
// be built once per slice.
const windowCap = 256

// sweepChunk is one claimed work unit: a run of consecutive adversaries,
// held in the claiming worker's window buffer (runKit.advs) until its
// next claim refills it, and the stream index of the first.
type sweepChunk struct {
	base int
	advs []*Adversary
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
// mutex, into the claiming worker's window buffer. An exhaustive space
// is cut by a shared window cursor (spaceRange), and the claiming worker
// enumerates its window outside the lock: into fresh slabs when the
// sweep's Results escape, since a Result keeps its adversary, and
// otherwise (reuse) into its walker's one reused arena, which the next
// claim overwrites. Any other source is pulled under the lock, up to
// size adversaries per claim, from one iter.Pull over its Seq; into
// points at the claiming worker's buffer for the one pull. The pull runs
// caller code with the lock held, so every path releases the lock by a
// deferred unlock — a worker unwinding out of a claim must not strand
// the others; a panic in that code is recovered inside the pulled
// iterator, with its stack, and fails the sweep.
type sweepClaimer struct {
	mu     sync.Mutex
	cursor *enum.Cursor  // nil for a plain stream
	origin int           // the space offset of the stream's first adversary
	reuse  bool          // carve windows from each worker's reused arena
	size   int           // the most adversaries a pull appends
	into   *[]*Adversary // the pulling claim's window buffer
	pull   func() (int, bool)
	stop   func()
}

// newClaimer builds src's claimer; reuse is sweepExec's. fail receives a
// panic recovered from the source's iterator; it must cancel the sweep.
func newClaimer(src Source, count int, known bool, workers int, reuse bool, fail func(error)) *sweepClaimer {
	cl := new(sweepClaimer)
	if space, lo, hi, ok := spaceRange(src, 0, math.MaxInt); ok {
		cl.cursor, cl.origin, cl.reuse = enum.NewCursor(space, lo, hi), lo, reuse
		return cl
	}
	cl.size = chunkSizeFor(count, known, workers)
	// The pulled iterator fills whole windows, so a claim switches into
	// it once, not once per adversary, and yields each window's stream
	// index once it is full. It appends only while a claim pulls, into
	// that claim's buffer.
	cl.pull, cl.stop = iter.Pull(func(yield func(int) bool) {
		// Source iterators run arbitrary workload code: a panic there
		// becomes a typed sweep failure, its stack captured here, on the
		// iterator's own frames, and the pulled stream simply ends.
		defer func() {
			if pe := govern.Recovered("engine: sweep source", recover()); pe != nil {
				fail(pe)
			}
		}()
		next := 0
		for adv := range src.Seq() {
			*cl.into = append(*cl.into, adv)
			next++
			if len(*cl.into) == cl.size && !yield(next-cl.size) {
				return
			}
		}
		if n := len(*cl.into); n > 0 {
			yield(next - n)
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

// claim takes the next window into kit's window buffer; ok is false once
// the source is exhausted. walker is the calling worker's own.
func (cl *sweepClaimer) claim(e *Engine, kit *runKit, walker *enum.Walker) (sweepChunk, bool) {
	if cl.cursor == nil {
		grew := kit.fit(cl.size)
		base, ok := cl.pullInto(&kit.advs)
		if ok {
			e.countWindow(grew)
		}
		return sweepChunk{base: base, advs: kit.advs}, ok
	}
	w, ok := cl.nextWindow()
	if !ok {
		return sweepChunk{}, false
	}
	e.countWindow(kit.fit(w.Len))
	if cl.reuse {
		kit.advs = walker.AppendReused(kit.advs, w)
	} else {
		kit.advs = walker.Append(kit.advs, w)
	}
	return sweepChunk{base: w.Base - cl.origin, advs: kit.advs}, true
}

// nextWindow cuts the next window under the lock.
func (cl *sweepClaimer) nextWindow() (enum.Window, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.cursor.Next(windowCap)
}

// pullInto pulls the next window of a plain stream into advs under the
// lock and returns its stream index.
func (cl *sweepClaimer) pullInto(advs *[]*Adversary) (int, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.into = advs
	base, ok := cl.pull()
	cl.into = nil
	return base, ok
}

// chunks is one worker's sequence of claimed windows, each in kit's
// window buffer until the loop body moves on. Claims stop once ctx is
// done.
func (cl *sweepClaimer) chunks(ctx context.Context, e *Engine, kit *runKit) iter.Seq[sweepChunk] {
	return func(yield func(sweepChunk) bool) {
		var walker enum.Walker
		for sweepCancelled(ctx) == nil {
			c, ok := cl.claim(e, kit, &walker)
			if !ok || !yield(c) {
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
// label what, owns all worker-local state, and ranges over its own
// sequence of windows, each held in the kit's window buffer until the
// next claim. reuse asserts that body is done with a window's
// adversaries when the loop moves on and keeps nothing of them — no
// Result escapes — so an exhaustive space's windows are carved from
// each worker's reused arena. sweepExec starts no goroutine but its workers, and returns only
// once every worker has returned and the source iterator it pulled, if
// any, has finished.
func (e *Engine) sweepExec(ctx context.Context, what string, refs []string, src Source, reuse bool, body func(ctx context.Context, specs []*ProtocolSpec, kit *runKit, chunks iter.Seq[sweepChunk]) error) error {
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
	cl := newClaimer(src, count, known, workers, reuse, fail)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.withKit(what, func(kit *runKit) error {
				return body(ctx, specs, kit, cl.chunks(ctx, e, kit))
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
	return e.sweepExec(ctx, "engine: sweep worker", refs, src, deliver == nil, func(ctx context.Context, specs []*ProtocolSpec, kit *runKit, chunks iter.Seq[sweepChunk]) error {
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
// backend runs into, the worker's knowledge Builder, which holds no
// storage until its first Build, and the window buffer (advs) that each
// claim of a sweep refills. Kits recycle through the engine's bounded
// freelist so repeated runs and sweeps reuse warmed-up buffers; metered
// is the run and window buffers' capacity last reported to the
// governor.
type runKit struct {
	buf     *runBuffer
	builder *knowledge.Builder
	advs    []*Adversary
	metered int64
}

// bytes reports the capacity the kit's run and window buffers pin, 8
// bytes per window pointer; the builder meters its own storage.
func (kit *runKit) bytes() int64 { return kit.buf.bytes() + 8*int64(cap(kit.advs)) }

// fit empties the window buffer for a window of up to n adversaries,
// growing it first if it is smaller, and reports whether it grew.
func (kit *runKit) fit(n int) (grew bool) {
	if cap(kit.advs) >= n {
		kit.advs = kit.advs[:0]
		return false
	}
	kit.advs = make([]*Adversary, 0, n)
	return true
}

// countWindow meters one claimed window: a chunk hit when it fit its
// worker's window buffer, a miss when the buffer grew.
func (e *Engine) countWindow(grew bool) {
	if grew {
		e.statChunkMiss.Add(1)
	} else {
		e.statChunkHit.Add(1)
	}
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

// putKit harvests the kit's builder counters, clears its window
// buffer's pointers and its run buffer's, so the pool does not pin a
// finished call's windows, adversaries or graphs, and ends its
// builder's revive chain, since a caller may change a pattern in place
// before the next run. It then settles the byte account of the kit's
// run and window buffers and returns the kit to the freelist, unless
// the governor is shedding (or the freelist is full), in which case the
// kit is discarded and every byte it held goes back to the account.
func (e *Engine) putKit(kit *runKit) {
	e.harvestKit(kit)
	clear(kit.advs[:cap(kit.advs)])
	kit.advs = kit.advs[:0]
	kit.buf.forget()
	kit.builder.Forget()
	if e.gov != nil {
		if d := kit.bytes() - kit.metered; d != 0 {
			e.gov.Grow(d)
			kit.metered += d
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
// capacity of the run and window buffers.
func (e *Engine) dropKit(kit *runKit) {
	kit.builder.Discard()
	if e.gov != nil && kit.metered != 0 {
		e.gov.Shrink(kit.metered)
		kit.metered = 0
	}
}

// discardKit retires a kit whose state may be corrupt (a recovered
// panic mid-fold): counters are still harvested, then everything the
// kit holds is released rather than repooled.
func (e *Engine) discardKit(kit *runKit) {
	e.harvestKit(kit)
	e.dropKit(kit)
}

// Close releases every warm kit the engine pools and returns its
// accounted bytes to the governor; a kit a panicking worker retired has
// already returned its own. The engine stays usable afterwards (the
// pool just starts cold); long-running processes that build per-job
// engines against one shared governor must call it when the job ends,
// or the account would drift upward with every retired engine's warm
// buffers. Safe to call repeatedly.
func (e *Engine) Close() {
	e.kitMu.Lock()
	kits := e.kitFree
	e.kitFree = nil
	e.kitMu.Unlock()
	for _, kit := range kits {
		e.dropKit(kit)
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
// its first run. The graph is built in the kit's reused Builder arena —
// revived or patched from the previous adversary's when they share a
// failure pattern — and released once the adversary's runs are done,
// which is safe because no Result keeps it. The one branch is whether
// the Results escape: if they do, each run goes to deliver as a detached
// copy carrying the adversary string and the graph's stats, both taken
// once per adversary while the graph is built; if not, it folds.
func (e *Engine) sweepAdversary(ctx context.Context, w *sweepWorker, adv *Adversary, advIdx int) error {
	if err := sweepCancelled(ctx); err != nil {
		return err
	}
	p, err := e.runParams(adv)
	if err != nil {
		return err
	}
	e.memoFor(&w.memo, w.refs, w.specs, p)
	var g *knowledge.Graph
	if e.backend.needsGraph() {
		g = w.kit.builder.Build(adv, w.memo.horizon)
		defer g.Release()
	}
	var (
		advStr string
		gs     *GraphStats
	)
	if w.deliver != nil {
		advStr = adv.String()
		if g != nil {
			stats := graphStats(g)
			gs = &stats
		}
	} else {
		w.kit.buf.verify.Prepare(adv)
	}
	for refIdx, spec := range w.specs {
		res, err := e.runInto(w.kit.buf, w.refs[refIdx], spec, w.memo.entries[refIdx], p, adv, g)
		if err != nil {
			return err
		}
		if w.deliver != nil {
			w.deliver(advIdx, refIdx, detach(res, advStr, gs))
		} else {
			w.a.fold(&w.shard[refIdx], refIdx, res, w.kit.buf)
		}
	}
	return nil
}

// runInto fills buf's request for one run and executes it on the
// engine's backend. The Result aliases buf.
func (e *Engine) runInto(buf *runBuffer, ref string, spec *ProtocolSpec, ent protoEntry, p Params, adv *Adversary, g *knowledge.Graph) (*Result, error) {
	req := &buf.req
	req.ref, req.spec, req.protoEntry, req.params, req.adv, req.graph = ref, spec, ent, p, adv, g
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
