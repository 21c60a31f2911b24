// Package setconsensus is a complete implementation of
// "Unbeatable Set Consensus via Topological and Combinatorial Reasoning"
// (Castañeda, Gonczarowski, Moses — PODC 2016): the unbeatable protocol
// Optmin[k] for nonuniform k-set consensus and the early-deciding uniform
// protocol u-Pmin[k] in the synchronous message-passing model with crash
// failures, together with every substrate the paper's analysis uses —
// the knowledge calculus (seen / guaranteed-crashed / hidden nodes,
// hidden capacity), the literature baselines, the Lemma 2 hidden-run
// construction and the Lemma 1/3 unbeatability certificates, the
// combinatorial-topology machinery (subdivisions, Sperner's lemma,
// protocol complexes, star-complex connectivity), the Appendix E compact
// wire protocol, and a goroutine message-passing runtime.
//
// # Engine and Registry
//
// The public API is the Engine facade: one context-aware entry point over
// all three execution backends. Protocols are resolved by name in a
// Registry — no consumer switches on protocol names — and every run
// returns the same JSON-marshalable Result regardless of backend:
//
//	adv := setconsensus.NewBuilder(6, 2).Input(0, 0).MustBuild()
//	eng := setconsensus.New(
//		setconsensus.WithCrashBound(3),
//		setconsensus.WithDegree(2),
//	)
//	res, err := eng.Run(ctx, "optmin", adv)       // one protocol, one adversary
//	err = res.Verify(setconsensus.Task{K: 2})
//
// Batch workloads — the all-protocols-vs-all-adversaries comparisons that
// unbeatability is defined by — go through Engine.Sweep, which fans the
// cross product out over a worker pool, shares a single knowledge graph
// per adversary across all protocols, and honors context cancellation;
// SweepSourceStream streams results as they finish:
//
//	results, err := eng.Sweep(ctx, setconsensus.Protocols(), advs)
//	err = eng.SweepSourceStream(ctx, refs, setconsensus.SliceSource(advs...), func(r *setconsensus.Result) { ... })
//
// # Workloads and Sources
//
// The workload side mirrors the protocol side: adversary families are
// named, parameterized, and registered. A Source is a restartable
// iter.Seq stream of adversaries; a WorkloadRegistry resolves references
// like "collapse:k=3,r=2..6" (integer parameters accept lo..hi ranges)
// into Sources; and Engine.SweepSource shards a Source across the worker
// pool in deterministic windows, folding every run online into a Summary
// — per-protocol decision-time histograms, undecided and task-violation
// counts, and wire-bit totals — whose size is bounded by protocols and
// horizon, never by results, so exhaustive spaces sweep without ever
// materializing:
//
//	src, err := setconsensus.ParseWorkload("space:n=4,t=2,r=2,v=0..1")
//	sum, err := eng.SweepSource(ctx, []string{"optmin", "upmin"}, src)
//	fmt.Println(setconsensus.SummaryTable(sum).Render())
//
// The built-in workloads are the paper's families plus the exhaustive
// enumeration:
//
//	hiddenpath    Fig. 1 hidden path            depth=1..4 n=maxdepth+2
//	hiddenchains  Fig. 2 / Lemma 2 chains       c=1..3 m=2 extra=2
//	collapse      Fig. 4 separation family      k=2 r=2..4 extra=k+2 low=false
//	silentrounds  tight worst-case family       k=2 r=1..4 extra=k+1
//	random        seeded random adversaries     n=6 t=3 maxv=2 maxr=3 count=100 seed=1
//	space         exhaustive canonical space    n=3 t=2 r=2 v=0..1
//
// Sources compose: SliceSource bridges materialized slices (Sweep itself
// runs on it), SpaceSource streams an enum.Space and counts it exactly
// in closed form, RandomSource samples a seed deterministically,
// LimitSource bounds a stream to a budget,
// ConcatSources chains workloads, and FuncSource adapts any custom
// iterator. Aggregation is reusable outside SweepSource via
// Engine.NewAggregator plus Aggregator.Add.
//
// The three backends (selected with WithBackend) are:
//
//	Oracle      the deterministic full-information simulator — the
//	            reference semantics (internal/sim)
//	Goroutines  one goroutine per process, channels as links, a router
//	            applying the failure pattern (internal/runtime)
//	Wire        the Appendix E compact protocol with per-link bit
//	            accounting (internal/wire)
//
// All three agree bit for bit on decisions; the equivalence is asserted
// by the engine tests and demonstrated by examples/messagepassing.
//
// # Options
//
// New applies functional options over DefaultEngineParams; EngineParams
// .Validate rejects out-of-range values and the error is returned by
// every Run/Sweep on the misconfigured engine. The defaults:
//
//	Option            default  meaning
//	WithBackend       Oracle   execution backend (Oracle | Goroutines | Wire)
//	WithCrashBound    -1       crash bound t; -1 means n−1 per adversary
//	WithDegree        1        coordination degree k (1 = consensus)
//	WithHorizon       0        0 = each protocol's registered worst case (override: Oracle only)
//	WithParallelism   NumCPU   Sweep/Analyze worker-pool size
//	WithRegistry      default  protocol name resolution
//	WithAnalyses      default  analysis family resolution
//
// The Registry ships with every protocol in the repository — "optmin",
// "upmin", their k=1 specializations "opt0" and "uopt0", and the five
// literature baselines "floodmin", "earlycount", "u-earlycount",
// "perround", "u-perround" — each with metadata (uniform task or not,
// worst-case decision time, wire capability). Register adds custom
// protocols, on the default registry or a private one passed via
// WithRegistry. DefaultWorkloads is the analogous registry of workload
// names; WorkloadRegistry.Register adds custom adversary families.
//
// Lower-level constructors (NewOptmin, NewBaseline, Run, NewGraph, …)
// remain exported for single-shot use and for the analysis tooling
// (certificates, searches, topology).
//
// # Analyses
//
// The paper's unbeatability machinery rides the same facade. Analyses
// are named, parameterized families in an AnalysisRegistry — resolved
// exactly like workloads, with family names that may themselves contain
// colons — and run through Engine.Analyze / Engine.AnalyzeStream:
//
//	rep, err := eng.Analyze(ctx, "search:optmin:n=3,t=2,r=3,width=2")
//	rep, err = eng.AnalyzeStream(ctx, "forced:k=3", func(p setconsensus.AnalysisProgress) {
//		log.Printf("%s %d/%d", p.Stage, p.Done, p.Total)
//	})
//	fmt.Println(setconsensus.AnalysisTable(rep).Render())
//
// The built-in families:
//
//	search:optmin  bounded deviation search vs Optmin[k]   n=3 t=2 k=<engine k> r=t+1 v=0..k width=2
//	search:upmin   bounded deviation search vs u-Pmin[k]   same, uniform agreement
//	lemma2         hidden-run construction + verification  c=<engine k> m=2 extra=2
//	forced         Lemma 1/3 cannot-decide certificates    k=<engine k> m=2 extra=2
//
// An analysis is a staged pipeline owned by the Engine. The search
// families compile every run of an exhaustive space on the sweep
// executor: each worker claims whole pattern blocks of the space,
// enumerates them itself, and compiles them through its pooled run
// buffer (knowledge graphs patched in the worker's Builder arena, views
// interned by zero-copy binary fingerprints) into its own fragment of
// a compact run table —
// int32 view ids, decision columns and input-value words, nothing per
// run for the collector to trace — and the fragments merge in space
// order, re-interned so view ids match a sequential compile. No run
// keeps its adversary: a witness rebuilds its strict-win adversary from
// the run's offset in the space. The search then strides the deviation
// candidates across the worker pool: each worker owns scratch and
// private counters merged once, candidates simulate only the runs their
// views occur in, and the first dominating candidate in canonical order
// short-circuits the remaining work. The certificate families shard
// graph nodes across the same pool. Reports are deterministic in the
// configuration alone — Engine.Analyze with Parallelism 1 and
// Parallelism N return identical AnalysisReports, pinned by tests under
// -race.
//
// The AnalysisReport schema is typed end to end: search outcomes carry a
// SearchReport whose Witness (if any) is the deviation list plus the
// strict-win adversary's canonical fingerprint — data, not prose; every
// report type renders through String. A beaten search's counters cover
// the canonical enumeration prefix through the minimal dominating
// candidate. cmd/setconsensus -analyze and cmd/experiments -analyze
// drive the same families from the command line (exit 1 when a claim
// fails to verify), and -list-analyses lists the registry.
//
// # Jobs and the Service
//
// Everything above is also operable as a long-running job service:
// cmd/setconsensusd accepts sweep and analysis jobs over HTTP/JSON,
// runs them on a bounded queue with per-job context deadlines and a
// configurable worker pool, and streams progress over SSE. A job is a
// kind ("sweep" | "analysis") plus the same references the CLIs take —
// protocol refs and a workload reference, or an analysis reference —
// resolved through the same registries, so anything expressible as
// `setconsensus -workload/-analyze` is expressible as a job. Its
// lifecycle is queued → running → done | failed | cancelled; DELETE
// cancels through the job's context, terminal results (the same Summary
// / AnalysisReport JSON) are retained in a bounded in-memory store, and
// every budget — worker count, queue depth, per-job deadline, max
// adversary space per job, retained results — is a validated
// service.Params field with a typed rejection error. Engine progress
// plumbs through: SweepSourceProgress emits throttled SweepProgress
// snapshots (adversaries and runs folded so far) that the service
// relays as SSE "progress" events, and AnalyzeStream's stage snapshots
// stream the same way. `setconsensus -server URL` submits sweeps and
// analyses as remote jobs and renders the returned result through the
// identical table path, byte-for-byte. internal/service holds the
// embeddable Server and Client; GET /v1/stats, /debug/vars (expvar),
// GET /metrics (Prometheus text exposition), and /debug/pprof expose
// counters (queue depth, runs/s, graphs revived vs rebuilt, run-kit
// pool and window-buffer hit rates) and profiles. Each counter is one row of the
// service's metrics table, which all three counter surfaces render.
//
// # Distributed Sweeps
//
// One exhaustive sweep can be sharded across many workers through the
// internal/coord coordinator (CLI surface: setconsensus -coordinate).
// Its vocabulary:
//
//	range       a window [offset, offset+limit) of the workload's
//	            canonical enumeration order — the unit of distribution,
//	            swept via RangeSource. The coordinator takes the
//	            workload's count up front and mints exactly the ranges
//	            that tile [0, count); a worker enters its range by
//	            unranking the offset, never by walking the prefix
//	lease       a time-bounded grant of one range to one worker; an
//	            expired lease (stalled or vanished worker) is re-issued,
//	            and duplicate completions merge idempotently by offset
//	checkpoint  the coordinator's state as an append-only journal at
//	            exactly the -checkpoint path: a header (version 3,
//	            workload, refs, range size), then one record per finished
//	            range with its partial Summary and one per charged failed
//	            attempt, each line the CRC-32 of its JSON body, a space,
//	            the body; appended as each range finishes, never
//	            rewritten, so the bytes written grow linearly with the
//	            range count. Version 1 and 2 JSON checkpoints are
//	            rejected with ErrCheckpointVersion, not migrated
//	resume      re-running the same invocation against an existing
//	            checkpoint: the file is validated against the workload,
//	            protocol refs, and range size, finished ranges are
//	            merged without re-sweeping, and only unfinished ranges
//	            run
//
// The fault-tolerance vocabulary layered on top (PR 8):
//
//	chaos       deterministic fault injection (internal/chaos): a seeded
//	            injector with named points — worker crash, straggler
//	            stall, dropped/duplicated completion, transient HTTP
//	            error, SSE disconnect, torn checkpoint append — threaded
//	            through the coordinator, both worker transports, and the
//	            service client; nil (the default) never fires. CLI
//	            surface: setconsensus -coordinate -chaos SPEC, tallies
//	            on stderr only
//	quarantine  the open state of a worker's circuit breaker: after
//	            BreakerThreshold consecutive failures the worker draws
//	            no new ranges, and the failure that tripped it refunds
//	            the range's attempt (the fault is attributed to the
//	            worker, not the range)
//	probation   re-admission from quarantine: once the probation window
//	            passes, the worker gets exactly one trial range —
//	            success closes the breaker, failure re-opens it with a
//	            doubled window
//	torn tail   the end of a checkpoint journal whose record fails its
//	            CRC — a crash mid-append, a flipped byte: resume keeps
//	            the longest prefix of intact records, drops the tail
//	            (counted as CheckpointTailsDropped), cuts it off before
//	            the first new append, and re-sweeps its ranges. A torn
//	            append seen in-process (the chaos torn point) is
//	            repaired on the spot by cutting back and writing the
//	            record again. A file without an intact header, and
//	            version or identity mismatches, reject with typed errors
//	            and are left untouched
//
// The resource-governance vocabulary (PR 9, internal/govern):
//
//	ceiling     a byte limit over the governor's live account of metered
//	            arena/pool bytes: the soft ceiling stops pool retention
//	            and starts shedding, the hard ceiling rejects new
//	            admissions with the typed ErrMemoryBudget — running
//	            work is never aborted for memory
//	shedding    the over-soft-ceiling mode: pools free released buffers
//	            instead of recycling them and the service answers new
//	            submissions 429 with Retry-After; latched with
//	            ShedHoldoff of hysteresis so the signal decays by time,
//	            not with the microsecond-scale oscillation of the
//	            account
//	readiness   GET /readyz: 200 when accepting work, 503 while
//	            shedding or draining — the load-balancer signal, as
//	            opposed to /healthz liveness
//	watchdog    the stuck-job monitor: progress callbacks Touch an
//	            atomic clock, and a job whose clock stops advancing for
//	            the progress deadline is cancelled with the typed
//	            ErrStalled cause; a recovered worker panic likewise
//	            becomes a typed *PanicError job failure with the
//	            panic-origin stack retained, never a dead daemon
//
// Workers come in two transports behind one interface: in-process
// Engines sweeping RangeSource windows, and setconsensusd servers
// (-join) receiving range-scoped jobs — a JobRequest carrying offset
// and limit, admitted against the server's space budget by the window
// rather than the full space, so a fleet collectively sweeps spaces no
// single server would admit. Because Summary.Merge is associative and
// commutative and the enumeration order is canonical, any partition of
// the offset space merges to the byte-identical monolithic summary
// (pinned by TestRangePartitionEquivalence); kill-and-resume
// byte-equality is drilled end-to-end by scripts/smoke_coord.sh in CI,
// and scripts/smoke_chaos.sh re-drills it under an armed fault schedule
// with a torn-tail recovery leg.
//
// # Performance
//
// The fleet-wide hot path is knowledge-graph construction: every oracle
// run pays one graph per adversary, and SweepSource streams tens of
// thousands of adversaries through it. The graph is therefore
// arena-backed: all layer bitsets and value sets live in a single
// []uint64 slab, the derived tables (known crashes, hidden counts,
// hidden capacity, failure counts, minima) are flat []int slabs indexed
// by stride arithmetic, and the paper's Definition 2/3 set computations
// run word-parallel over the arena (internal/bitset supplies the
// AndNotCount / OrCount / CopyFrom kernels). Building a graph costs six
// allocations regardless of n and horizon; a knowledge.Builder with
// Graph.Release recycles even those. The engine has one graph lifetime:
// every path — Run, every sweep, the analysis compile — builds each
// adversary's graph in its worker's private builder and releases it once
// the adversary's runs are done, so a whole shard reuses one arena. No
// Result keeps a graph: a kept Result carries its GraphStats, and
// Result.KnowledgeGraph rebuilds an equal graph on demand. Because an
// exhaustive enumeration yields every input vector of one canonical
// failure pattern consecutively, the Builder additionally revives a
// released same-pattern graph: the views, known-crash, and hidden
// tables are reused verbatim and only the value layer is recomputed, so
// the steady state of a pattern block is an allocation-free ~1µs
// rebuild. Equivalence with the retained naive implementation is
// enforced node-for-node over randomized adversaries
// (internal/knowledge/equiv_test.go, revive_test.go).
//
// The delta layer (PR 10) sharpens the same observation into incremental
// graph maintenance — its vocabulary:
//
//	delta order    within one pattern block the enumeration emits input
//	               vectors in reflected (mixed-radix) Gray-code order, so
//	               consecutive adversaries differ in exactly one process's
//	               initial value; the Builder finds that process by
//	               diffing the inputs against the graph it released last
//	patch          the one-diff Build path: when the parked spare shares
//	               the pattern and the inputs differ in a single process,
//	               only the value and knowledge words of the views that
//	               ever see that process are rewritten — the layer
//	               bitsets, crash tables, and untouched views are
//	               bit-for-bit the spare's (internal/knowledge/patch_test.go
//	               pins this node for node); a zero-diff rebuild skips
//	               entirely
//	touched views  the CSR table built once per full build that maps each
//	               process to the views it reaches — the patch kernel's
//	               worklist, so a patch is O(views seeing the change), not
//	               O(graph)
//
// The sweep executor hands out exhaustive spaces one pattern block at a
// time, so a block of up to 256 adversaries pays one full build at its
// first adversary and patches the rest at any parallelism; Engine.Stats
// meters the split exactly (GraphsRebuilt = one per canonical pattern,
// GraphsPatched = everything else, pinned by
// TestSweepSourceMetersPatches). A larger block is handed out in aligned
// slices of 256, and at Parallelism > 1 each slice may pay its own full
// build. The unbeatability compile stage rides the same order:
// Compiler.Add diffs consecutive adversaries and copies interned view
// ids forward for every view the changed process never reaches,
// skipping fingerprint encoding and interning for the bulk of each
// block.
//
// The aggregating sweep itself is sharded and pooled. Each SweepSource
// worker folds its runs into private per-protocol accumulators
// (internal/agg.Acc — plain integer bumps, no maps, no locks) and merges
// them into the shared Summary exactly once, when its shard is drained
// (Summary.Merge is the public form of the same operation), so
// throughput scales with Parallelism instead of serializing on an
// aggregator mutex. Every run, a sweep's or Engine.Run's, executes into
// a per-worker run buffer: one reused Result, process-indexed decisions
// with a decider mask beside them (internal/sim.Scratch), and no
// adversary string. The oracle's run loop visits each time step once:
// it takes the step's active, undecided processes as a word mask, and
// Optmin and u-Pmin decide all of them in one call over the graph's Min
// and hidden-capacity rows (sim.StepRule), while any other protocol is
// asked per candidate. A folding sweep verifies each run as set
// operations on its decider mask against the adversary's correct set
// and input-value set, which the worker computes once per adversary for
// all its protocols (internal/check.Scratch). Run, Sweep and
// SweepSourceStream hand out detached copies: decisions in one fresh
// slab, the adversary string rendered once per adversary. Each worker
// claims its next window under one mutex and enumerates it itself. An
// exhaustive space (SpaceSource, or any
// nesting of RangeSource and LimitSource over one) hands out windows
// from a shared enum.Cursor, which steps to each block's canonical
// failure pattern — the canonical patterns are generated directly, those
// whose unobservable delivery bits are clear, so nothing is deduplicated
// — and materializes it once; the claiming worker decodes the Gray code
// and carves adversaries with its own enum.Walker, outside the lock:
// out of fresh slab blocks when the sweep's Results escape, since a kept
// Result holds its adversary, and out of the walker's one reused arena
// when they fold (SweepSource and the analysis compile), so the
// aggregating path over a space allocates nothing per adversary, and
// per failure pattern only a share of the cursor's slab blocks. The Builder and the search Compiler keep a copy
// of the previous adversary's inputs, never the arena's adversary (the
// recycle contract on Engine). Any other Source is pulled under the
// claim lock (iter.Pull), a window per claim, and the sweep returns only
// after that iterator has; a random stream is drawn by a model.Sampler,
// which carves adversaries and inputs from 64-entry slabs, and patterns
// with their crash slices and delivery sets from a model.PatternSlab —
// the carver the enum.Cursor draws its canonical patterns from, in
// blocks sized to the patterns left in its range — so an adversary costs
// only a share of the slabs. Each claim refills the claiming worker's
// window buffer, one per pooled run kit, and the workers share nothing
// per adversary: cancellation is polled on the Done channel and progress
// is counted per window.
//
// Identity keys are compact binary encodings, not rendered strings: both
// the per-view Fingerprint (view interning in the unbeatability search
// and protocol complexes, hashed once by the map that holds it) and
// Adversary.Fingerprint (a search witness's strict-win adversary,
// rendered as hex in reports) encode varints plus raw bitset words.
// Protocol instances are cached per (ref, params) — decision rules are
// pure functions of the view, so one instance serves all workers.
//
// The analysis pipeline reuses all of it: search compilation runs on the
// sweep executor's claimed windows and per-worker kits, through pooled
// run buffers with Builder-patched graphs, and interns views through
// Graph.AppendFingerprint (the zero-copy form of Fingerprint — map
// lookup via string(bytes), key materialized only on a miss). Compiled
// runs live in a struct-of-arrays table (about 90 B per run at n=5,
// where the per-run records it replaced held about 1.2 KB), value sets
// are copied into a slab, and occurrence sets exist only for deviation
// views, each carved at its exact length from one slab. Candidate
// testing is allocation-free per candidate (per-worker testScratch;
// pinned by internal/unbeat/scratch_test.go). The pre-pipeline search is
// retained verbatim, test-only, in internal/unbeat/reference_test.go,
// enforced report-for-report by equivalence tests and measured by the
// BenchmarkSearchPipeline/BenchmarkSearchReference ablation pair.
//
// BENCH_baseline.json records the measured trajectory per PR
// (pr4_post is the sharded/pooled sweep: BenchmarkSweepSource 3.4ms →
// 1.0ms and 29.3k → 1.6k allocs/op vs pr3_post; pr5_post is the
// analysis pipeline: the seeded deviation search 112.2ms/1.21M allocs →
// 29.2ms/22.3k through Engine.Analyze; pr6_post adds the job service —
// BenchmarkServiceSubmit puts the full job lifecycle at ~76µs/202
// allocs over the underlying sweep); CI uploads benchstat-comparable
// output per run and gates >20% ns/op regressions on the sweep,
// analysis, and service hot paths via cmd/benchguard. To profile
// locally:
//
//	go test -run xxx -bench BenchmarkSweepSource -cpuprofile cpu.out .
//	go tool pprof -top cpu.out
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for the
// measured reproduction of every figure and theorem.
package setconsensus
