package setconsensus

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"setconsensus/internal/enum"
	"setconsensus/internal/experiments"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/unbeat"
)

// This file is the analysis side of the Engine facade: where Sweep runs
// protocols over workloads, Analyze runs the paper's unbeatability
// machinery — the bounded deviation search and the Lemma 1/2/3
// certificate constructions — as named, parameterized analysis families
// on the same engine plumbing. The search's compile stage runs on the
// sweep executor: each worker compiles the pattern-block-aligned chunks
// it claims through its kit's pooled run buffer, with the kit's
// knowledge Builder, into a fragment of the compact run table, and the
// fragments merge back in space order. Candidate testing and certificate
// construction run on the same pool (govern.Shards), every stage reports
// through one progress feed (govern.Feed), and the outcome is a
// structured AnalysisReport whose fields are identical at any parallelism.

// AnalysisRun executes one parsed analysis on an engine. The progress
// callback may be nil; when set, it receives serialized, throttled stage
// snapshots.
type AnalysisRun func(ctx context.Context, e *Engine, progress func(AnalysisProgress)) (*AnalysisReport, error)

// AnalysisSpec describes one named, parameterized analysis family,
// registered and referenced exactly like workloads: "name" or
// "name:key=val,key=val". Family names may contain colons
// ("search:optmin"); references resolve by longest registered prefix.
type AnalysisSpec struct {
	// Name is the canonical lookup key, e.g. "search:optmin".
	Name string
	// Aliases are additional lookup keys.
	Aliases []string
	// Summary is a one-line description for listings.
	Summary string
	// Params documents the accepted keys. Purely descriptive; parsing
	// happens in New.
	Params string
	// New builds the runnable analysis for one parsed argument set.
	New func(args WorkloadArgs) (AnalysisRun, error)
	// Count, when set, returns the number of adversaries the analysis
	// enumerates for one parsed argument set at the given engine degree:
	// the Space.Count of its compile space. Families that enumerate no
	// space (the certificate families) leave it nil.
	Count func(args WorkloadArgs, degree int) (int, error)
}

// AnalysisRegistry maps analysis family names to specs. The zero value
// is not usable; call NewAnalysisRegistry. All methods are safe for
// concurrent use.
type AnalysisRegistry struct {
	reg *specRegistry[*AnalysisSpec]
}

// NewAnalysisRegistry returns an empty analysis registry.
func NewAnalysisRegistry() *AnalysisRegistry {
	return &AnalysisRegistry{reg: newSpecRegistry[*AnalysisSpec]("analyses")}
}

// Register adds a spec. It fails on empty or duplicate names (including
// alias collisions) and on specs missing a constructor.
func (r *AnalysisRegistry) Register(spec AnalysisSpec) error {
	if spec.New == nil {
		return fmt.Errorf("analyses: %s: nil constructor", spec.Name)
	}
	s := spec
	return r.reg.register(spec.Name, spec.Aliases, &s)
}

// MustRegister is Register for static registrations.
func (r *AnalysisRegistry) MustRegister(spec AnalysisSpec) {
	if err := r.Register(spec); err != nil {
		panic(err)
	}
}

// Lookup resolves an analysis family name or alias, case-insensitively.
func (r *AnalysisRegistry) Lookup(name string) (*AnalysisSpec, error) {
	return r.reg.lookup(name)
}

// Names returns the canonical family names in registration order.
func (r *AnalysisRegistry) Names() []string { return r.reg.names() }

// Specs returns all registered specs in registration order.
func (r *AnalysisRegistry) Specs() []*AnalysisSpec { return r.reg.all() }

// Parse resolves an analysis reference — "name" or "name:key=val,..." —
// into a runnable analysis.
func (r *AnalysisRegistry) Parse(ref string) (AnalysisRun, error) {
	spec, argStr, err := r.reg.splitRef(ref)
	if err != nil {
		return nil, err
	}
	vals, err := parseArgPairs("analysis", ref, argStr)
	if err != nil {
		return nil, err
	}
	return spec.New(newWorkloadArgs("analysis", ref, vals))
}

// Count resolves an analysis reference and returns the number of
// adversaries it enumerates on an engine of the given degree — the
// analysis counterpart of a Source's Count, for admission controllers
// such as the job service's space budget. ok is false for families that
// enumerate no space.
func (r *AnalysisRegistry) Count(ref string, degree int) (n int, ok bool, err error) {
	spec, argStr, err := r.reg.splitRef(ref)
	if err != nil || spec.Count == nil {
		return 0, false, err
	}
	vals, err := parseArgPairs("analysis", ref, argStr)
	if err != nil {
		return 0, false, err
	}
	n, err = spec.Count(newWorkloadArgs("analysis", ref, vals), degree)
	return n, err == nil, err
}

// Analyze resolves ref in the engine's analysis registry and runs it to
// completion: compile on the sweep executor, then candidate testing or
// certificate construction sharded over the engine's worker pool. The
// report is deterministic in the analysis configuration alone —
// Parallelism changes wall-clock, never a field.
func (e *Engine) Analyze(ctx context.Context, ref string) (*AnalysisReport, error) {
	return e.AnalyzeStream(ctx, ref, nil)
}

// AnalyzeStream is Analyze with streaming progress delivery, the analysis
// analogue of SweepSourceProgress: each stage ("compile", "width-1",
// "width-2", "certify") delivers a zero snapshot as it opens, snapshots
// at most once per 100ms while its workers run, and a closing snapshot
// once they are done, all serialized and none after the call returns.
// Cancelling ctx aborts the analysis promptly at any stage.
func (e *Engine) AnalyzeStream(ctx context.Context, ref string, progress func(AnalysisProgress)) (*AnalysisReport, error) {
	if e.err != nil {
		return nil, e.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run, err := e.analyses.Parse(ref)
	if err != nil {
		return nil, err
	}
	return run(ctx, e, progress)
}

// AnalysisTable renders an AnalysisReport in the experiment table
// format, like SummaryTable for sweep summaries.
func AnalysisTable(r *AnalysisReport) *ExperimentTable { return experiments.AnalysisTable(r) }

// searchConfig is the parsed parameter set of a deviation-search family.
type searchConfig struct {
	n, t, k  int // k = 0 means the engine's degree
	r        int // 0 means t+1
	vLo, vHi int // vHi < vLo means 0..k
	width    int
	uniform  bool
}

// parseSearchConfig consumes a deviation-search family's arguments.
func parseSearchConfig(args WorkloadArgs, uniform bool) (searchConfig, error) {
	var cfg searchConfig
	var err error
	if cfg.n, err = args.Int("n", 3); err != nil {
		return cfg, err
	}
	if cfg.t, err = args.Int("t", 2); err != nil {
		return cfg, err
	}
	if cfg.k, err = args.Int("k", 0); err != nil {
		return cfg, err
	}
	if cfg.r, err = args.Int("r", 0); err != nil {
		return cfg, err
	}
	if cfg.vLo, cfg.vHi, err = args.Range("v", 0, -1); err != nil {
		return cfg, err
	}
	if cfg.width, err = args.Int("width", 2); err != nil {
		return cfg, err
	}
	if cfg.uniform, err = args.Bool("uniform", uniform); err != nil {
		return cfg, err
	}
	return cfg, args.Finish()
}

// resolve fills in the defaults that depend on the engine's degree: the
// search's k, the base protocol's parameters, and the exhaustive space
// the compile stage enumerates.
func (cfg searchConfig) resolve(degree int) (int, Params, enum.Space, error) {
	k := cfg.k
	if k == 0 {
		k = degree
	}
	r := cfg.r
	if r == 0 {
		r = cfg.t + 1
	}
	vLo, vHi := cfg.vLo, cfg.vHi
	if vHi < vLo {
		vLo, vHi = 0, k
	}
	p := Params{N: cfg.n, T: cfg.t, K: k}
	if err := p.Validate(); err != nil {
		return 0, Params{}, enum.Space{}, err
	}
	values, err := valueRange(vLo, vHi)
	if err != nil {
		return 0, Params{}, enum.Space{}, err
	}
	return k, p, enum.Space{N: cfg.n, T: cfg.t, MaxRound: r, Values: values}, nil
}

// searchAnalysisSpec builds the spec of one deviation-search family over
// a named base protocol.
func searchAnalysisSpec(name string, aliases []string, baseRef string, uniform bool) AnalysisSpec {
	return AnalysisSpec{
		Name:    name,
		Aliases: aliases,
		Summary: fmt.Sprintf("bounded deviation search: no ≤width-view early-decision rule beats %s on an exhaustive space", baseRef),
		Params:  "n=3 t=2 k=<engine degree> r=t+1 v=0..k width=2 uniform=" + fmt.Sprint(uniform),
		New: func(args WorkloadArgs) (AnalysisRun, error) {
			cfg, err := parseSearchConfig(args, uniform)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, e *Engine, progress func(AnalysisProgress)) (*AnalysisReport, error) {
				return e.runSearchAnalysis(ctx, name, baseRef, cfg, progress)
			}, nil
		},
		Count: func(args WorkloadArgs, degree int) (int, error) {
			cfg, err := parseSearchConfig(args, uniform)
			if err != nil {
				return 0, err
			}
			_, _, space, err := cfg.resolve(degree)
			if err != nil {
				return 0, err
			}
			if err := space.Validate(); err != nil {
				return 0, err
			}
			return space.Count(), nil
		},
	}
}

// runSearchAnalysis executes one deviation-search family end to end:
// compile every run of the exhaustive space on the sweep executor, then
// shard the candidate tests across the worker pool.
func (e *Engine) runSearchAnalysis(ctx context.Context, family, baseRef string, cfg searchConfig, progress func(AnalysisProgress)) (*AnalysisReport, error) {
	if e.params.Backend != Oracle {
		return nil, fmt.Errorf("engine: analysis %q simulates full-information deviation rules and requires the Oracle backend (have %s)",
			family, e.params.Backend)
	}
	k, p, space, err := cfg.resolve(e.params.K)
	if err != nil {
		return nil, err
	}
	sp := unbeat.SearchParams{Space: space, K: k, T: cfg.t, Uniform: cfg.uniform, Width: cfg.width}
	first, err := unbeat.NewCompiler(sp)
	if err != nil {
		return nil, err
	}
	spec, err := e.reg.Lookup(baseRef)
	if err != nil {
		return nil, err
	}
	ent := e.protoFor(baseRef, spec, p)
	if ent.err != nil {
		return nil, ent.err
	}
	src, err := SpaceSource(space)
	if err != nil {
		return nil, err
	}

	// Compile stage, on the sweep executor: each worker claims windows of
	// the space — a pattern block each, or a slice of a block above
	// windowCap — enumerates them itself, and compiles them into its own
	// fragment Compiler — one pooled run per adversary, graphs built in
	// the worker kit's Builder arena (at most one full build per window,
	// every other run patches) and released as soon as the run is
	// interned — recording each window as a segment at its offset. Merge
	// then tiles the fragments into the table a sequential compile would
	// build. The stage's total is the space's count.
	feed := govern.NewFeed(sweepProgressInterval, progress)
	feed.Stage("compile", space.Count())
	var (
		mu    sync.Mutex
		frags []*unbeat.Compiler
	)
	err = e.sweepExec(ctx, "engine: analysis compile", []string{baseRef}, src, true, feed, func(_ []*ProtocolSpec, kit *runKit, chunks iter.Seq[sweepChunk]) error {
		mu.Lock()
		frag := first
		if len(frags) > 0 {
			frag, _ = unbeat.NewCompiler(sp) // sp passed NewCompiler above
		}
		frags = append(frags, frag)
		mu.Unlock()
		for chunk := range chunks {
			frag.Segment(chunk.base)
			for _, adv := range chunk.advs {
				g := kit.builder.Build(adv, frag.Horizon())
				if err := e.runInto(kit.buf, baseRef, spec, ent, p, adv, g); err != nil {
					g.Release()
					return err
				}
				frag.Add(adv, g, kit.buf.simres.Decisions)
				g.Release()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	feed.Flush()
	cs, err := unbeat.Merge(frags...)
	if err != nil {
		return nil, err
	}

	srep, err := cs.Search(ctx, unbeat.SearchOptions{
		Parallelism: e.params.Parallelism,
		Feed:        feed,
	})
	if err != nil {
		return nil, err
	}
	return &AnalysisReport{
		Family: family, Workload: space.Label(),
		N: cfg.n, T: cfg.t, K: k,
		Search: srep,
	}, nil
}

// certNode is one graph node a certificate family examines.
type certNode struct {
	proc model.Proc
	time int
}

// certAcc is one worker's certificate accumulator, merged once when its
// shard is drained.
type certAcc struct {
	certified, orders int
}

// runCertAnalysis strides the eligible nodes of a certificate family
// across the engine's worker pool, as the "certify" stage of the
// progress feed. certify builds and checks one certificate, returning
// the orderings it validated; any error aborts the analysis (a failed
// certificate is a theorem violation, not a statistic).
func (e *Engine) runCertAnalysis(ctx context.Context, nodes []certNode, progress func(AnalysisProgress),
	certify func(ctx context.Context, node certNode) (orders int, err error)) (certified, orders int, err error) {

	workers := max(1, min(e.params.Parallelism, len(nodes)))
	accs := make([]certAcc, workers)
	feed := govern.NewFeed(sweepProgressInterval, progress)
	feed.Stage("certify", len(nodes))
	err = govern.Shards(ctx, "engine: certificate worker", workers, func(ctx context.Context, w int) error {
		acc := &accs[w]
		for idx := w; idx < len(nodes); idx += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			ord, err := certify(ctx, nodes[idx])
			if err != nil {
				return err
			}
			acc.certified++
			acc.orders += ord
			feed.Add(1)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	feed.Flush()
	for _, acc := range accs {
		certified += acc.certified
		orders += acc.orders
	}
	return certified, orders, nil
}

// certConfig is the parsed parameter set of a certificate family over
// the Fig. 2 hidden-chains run.
type certConfig struct {
	k     int // chain count / degree; 0 means the engine's degree
	m     int // chain length / horizon
	extra int // extra correct processes
}

func parseCertConfig(args WorkloadArgs, chainKey string) (certConfig, error) {
	var cfg certConfig
	var err error
	if cfg.k, err = args.Int(chainKey, 0); err != nil {
		return cfg, err
	}
	if cfg.m, err = args.Int("m", 2); err != nil {
		return cfg, err
	}
	if cfg.extra, err = args.Int("extra", 2); err != nil {
		return cfg, err
	}
	return cfg, args.Finish()
}

// hiddenChainsRun materializes the Fig. 2 run a certificate family
// works in: c chains of length m, all starting high.
func hiddenChainsRun(cfg certConfig, c int) (*model.Adversary, *knowledge.Graph, string, error) {
	n := 1 + c*(cfg.m+1) + cfg.extra
	values := make([]model.Value, c)
	for b := range values {
		values[b] = c
	}
	adv, err := model.HiddenChains(n, c, cfg.m, values, c)
	if err != nil {
		return nil, nil, "", err
	}
	label := fmt.Sprintf("hiddenchains:c=%d,m=%d,extra=%d", c, cfg.m, cfg.extra)
	return adv, knowledge.New(adv, cfg.m), label, nil
}

// forcedAnalysisSpec is the "forced" family: on the Fig. 2 run, every
// node at which Optmin[k] is undecided (low-free with hidden capacity
// ≥ k) must carry a complete Lemma 3 cannot-decide certificate, whose
// forcing recursions validate every change-run ordering of the Lemma 1
// proof.
func forcedAnalysisSpec() AnalysisSpec {
	return AnalysisSpec{
		Name:    "forced",
		Summary: "Lemma 1/3 forcing certificates for every Optmin-undecided node of the Fig. 2 run",
		Params:  "k=<engine degree> m=2 extra=2",
		New: func(args WorkloadArgs) (AnalysisRun, error) {
			cfg, err := parseCertConfig(args, "k")
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, e *Engine, progress func(AnalysisProgress)) (*AnalysisReport, error) {
				k := cfg.k
				if k == 0 {
					k = e.params.K
				}
				adv, g, label, err := hiddenChainsRun(cfg, k)
				if err != nil {
					return nil, err
				}
				var nodes []certNode
				for i := 0; i < adv.N(); i++ {
					for m := 0; m <= cfg.m; m++ {
						if !adv.Pattern.Active(i, m) {
							continue
						}
						if g.Min(i, m) < k || g.HiddenCapacity(i, m) < k {
							continue // Optmin decides here
						}
						nodes = append(nodes, certNode{proc: i, time: m})
					}
				}
				certified, orders, err := e.runCertAnalysis(ctx, nodes, progress,
					func(ctx context.Context, node certNode) (int, error) {
						cert, err := unbeat.CannotDecide(ctx, g, node.proc, node.time, k)
						if err != nil {
							return 0, fmt.Errorf("engine: forced: ⟨%d,%d⟩ uncertified: %w", node.proc, node.time, err)
						}
						return cert.TotalOrders(), nil
					})
				if err != nil {
					return nil, err
				}
				return &AnalysisReport{
					Family: "forced", Workload: label,
					N: adv.N(), T: adv.Pattern.NumFailures(), K: k,
					Nodes: len(nodes), Certified: certified, Orders: orders,
				}, nil
			}, nil
		},
	}
}

// lemma2AnalysisSpec is the "lemma2" family: on the Fig. 2 run, every
// active node with hidden capacity ≥ c must admit the Lemma 2 hidden-run
// construction — an indistinguishable run carrying c arbitrary values —
// and pass every side condition of its verification.
func lemma2AnalysisSpec() AnalysisSpec {
	return AnalysisSpec{
		Name:    "lemma2",
		Summary: "Lemma 2 hidden-run construction + verification at every high-capacity node of the Fig. 2 run",
		Params:  "c=<engine degree> m=2 extra=2",
		New: func(args WorkloadArgs) (AnalysisRun, error) {
			cfg, err := parseCertConfig(args, "c")
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, e *Engine, progress func(AnalysisProgress)) (*AnalysisReport, error) {
				c := cfg.k
				if c == 0 {
					c = e.params.K
				}
				adv, g, label, err := hiddenChainsRun(cfg, c)
				if err != nil {
					return nil, err
				}
				chainValues := make([]model.Value, c)
				for b := range chainValues {
					chainValues[b] = b
				}
				var nodes []certNode
				for i := 0; i < adv.N(); i++ {
					for m := 0; m <= cfg.m; m++ {
						if !adv.Pattern.Active(i, m) || g.HiddenCapacity(i, m) < c {
							continue
						}
						nodes = append(nodes, certNode{proc: i, time: m})
					}
				}
				certified, _, err := e.runCertAnalysis(ctx, nodes, progress,
					func(ctx context.Context, node certNode) (int, error) {
						h, err := unbeat.HiddenRun(g, node.proc, node.time, chainValues)
						if err != nil {
							return 0, fmt.Errorf("engine: lemma2: ⟨%d,%d⟩ construction: %w", node.proc, node.time, err)
						}
						if _, err := h.Verify(ctx, g); err != nil {
							return 0, fmt.Errorf("engine: lemma2: ⟨%d,%d⟩ verification: %w", node.proc, node.time, err)
						}
						return 0, nil
					})
				if err != nil {
					return nil, err
				}
				return &AnalysisReport{
					Family: "lemma2", Workload: label,
					N: adv.N(), T: adv.Pattern.NumFailures(), K: c,
					Nodes: len(nodes), Certified: certified,
				}, nil
			}, nil
		},
	}
}

// defaultAnalyses wires the built-in analysis families.
var defaultAnalyses = func() *AnalysisRegistry {
	r := NewAnalysisRegistry()
	r.MustRegister(searchAnalysisSpec("search:optmin", []string{"search"}, "optmin", false))
	r.MustRegister(searchAnalysisSpec("search:upmin", nil, "upmin", true))
	r.MustRegister(lemma2AnalysisSpec())
	r.MustRegister(forcedAnalysisSpec())
	return r
}()

// DefaultAnalyses returns the registry holding every built-in analysis
// family: the deviation searches ("search:optmin", "search:upmin") and
// the certificate constructions ("lemma2", "forced"). Callers may
// Register additional analyses on it.
func DefaultAnalyses() *AnalysisRegistry { return defaultAnalyses }

// ParseAnalysis resolves an analysis reference in the default registry,
// e.g. "search:optmin:n=3,t=2,width=2" or "forced:k=3".
func ParseAnalysis(ref string) (AnalysisRun, error) { return defaultAnalyses.Parse(ref) }

// Analyses returns the canonical family names in the default registry.
func Analyses() []string { return defaultAnalyses.Names() }
