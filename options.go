package setconsensus

import (
	"fmt"
	goruntime "runtime"
	"strings"
)

// BackendKind selects which of the three execution backends an Engine
// runs protocols on.
type BackendKind int

// The execution backends.
const (
	// Oracle is the deterministic full-information simulator
	// (internal/sim): the reference semantics. It computes one knowledge
	// graph per adversary and consults the protocol's decision rule at
	// every node; one graph is shared by the protocols run on an
	// adversary.
	Oracle BackendKind = iota
	// Goroutines is the concurrent message-passing engine
	// (internal/runtime): one goroutine per process, channels as links, a
	// router applying the failure pattern. Only wire-capable protocols
	// (Optmin/u-Pmin rules) can run on it.
	Goroutines
	// Wire is the deterministic Appendix E compact-protocol runner
	// (internal/wire), which additionally accounts bits per link. Only
	// wire-capable protocols can run on it.
	Wire
)

// String names the backend.
func (b BackendKind) String() string {
	switch b {
	case Oracle:
		return "oracle"
	case Goroutines:
		return "goroutines"
	case Wire:
		return "wire"
	}
	return fmt.Sprintf("BackendKind(%d)", int(b))
}

// ParseBackend resolves a backend name ("oracle", "goroutines", "wire"),
// case-insensitively and ignoring surrounding whitespace.
func ParseBackend(name string) (BackendKind, error) {
	key := strings.TrimSpace(name)
	for _, b := range []BackendKind{Oracle, Goroutines, Wire} {
		if strings.EqualFold(b.String(), key) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want oracle | goroutines | wire)", name)
}

// PatternCrashBound is the WithCrashBound value that sets t per run to
// the adversary's own failure count — the exact bound the named family
// curves are designed for (the collapse family's t = k(r+1) is precisely
// its crasher count), where a fixed t cannot fit a range-swept workload.
const PatternCrashBound = -2

// EngineParams is the full configuration of an Engine. Construct it via
// DefaultEngineParams and the functional Options; New validates it.
//
// Defaults (DefaultEngineParams):
//
//	Backend      Oracle   reference full-information simulator
//	T            -1       crash bound; -1 means n−1 per adversary,
//	                      PatternCrashBound (-2) the adversary's failure count
//	K            1        coordination degree (1 = consensus)
//	Horizon      0        0 means each protocol's WorstCaseTime
//	Parallelism  NumCPU   Sweep worker-pool size
type EngineParams struct {
	Backend     BackendKind
	T           int
	K           int
	Horizon     int
	Parallelism int

	// Deprecated: the engine keeps no knowledge-graph cache, so
	// GraphCache defaults to 0 and is ignored. It stays only until the
	// benchmark, its last reader, stops reading it.
	GraphCache int
}

// DefaultEngineParams returns the documented defaults.
func DefaultEngineParams() EngineParams {
	return EngineParams{
		Backend:     Oracle,
		T:           -1,
		K:           1,
		Horizon:     0,
		Parallelism: goruntime.NumCPU(),
	}
}

// Validate ensures the supplied parameters fall within operating ranges.
func (p EngineParams) Validate() error {
	switch p.Backend {
	case Oracle, Goroutines, Wire:
	default:
		return fmt.Errorf("engine: unknown backend %d", int(p.Backend))
	}
	if p.T < PatternCrashBound {
		return fmt.Errorf("engine: crash bound t must be ≥ 0 (or -1 for n−1, -2 for the pattern's failure count), got %d", p.T)
	}
	if p.K < 1 {
		return fmt.Errorf("engine: need degree k ≥ 1, got %d", p.K)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("engine: horizon must be ≥ 0 (0 = worst case), got %d", p.Horizon)
	}
	if p.Horizon > 0 && p.Backend != Oracle {
		return fmt.Errorf("engine: WithHorizon is only honored by the Oracle backend; the %s backend always runs the compact protocol to its own horizon", p.Backend)
	}
	if p.Parallelism < 1 {
		return fmt.Errorf("engine: need parallelism ≥ 1, got %d", p.Parallelism)
	}
	return nil
}

// ResourceGovernor is the engine's hook into a process-wide memory
// governor (internal/govern.Governor implements it): Grow/Shrink meter
// the byte capacity the engine's pooled buffers and builder arenas
// create and free, Retain gates pool recycling (false = release to the
// GC instead), and Admit checks headroom under a hard ceiling. Every
// method must be safe for concurrent use. A nil governor means
// ungoverned: no metering, pools always retain.
type ResourceGovernor interface {
	Grow(bytes int64)
	Shrink(bytes int64)
	Retain() bool
	Admit(bytes int64) error
}

// Option configures an Engine at construction.
type Option func(*engineConfig)

type engineConfig struct {
	params   EngineParams
	reg      *Registry
	analyses *AnalysisRegistry
	gov      ResourceGovernor
}

// WithBackend selects the execution backend (Oracle, Goroutines, Wire).
func WithBackend(b BackendKind) Option {
	return func(c *engineConfig) { c.params.Backend = b }
}

// WithCrashBound sets the a-priori crash bound t used for every run.
// Pass -1 (the default) to use n−1 for each adversary, or
// PatternCrashBound to use each adversary's own failure count — the
// designed bound of the named family workloads.
func WithCrashBound(t int) Option {
	return func(c *engineConfig) { c.params.T = t }
}

// WithDegree sets the coordination degree k (k-set consensus; 1 =
// consensus).
func WithDegree(k int) Option {
	return func(c *engineConfig) { c.params.K = k }
}

// WithHorizon overrides the simulation horizon. The default 0 runs each
// protocol to its registered WorstCaseTime; experiments that examine
// prefixes set an explicit horizon. Only the Oracle backend supports an
// override — the compact backends run their protocol to its own horizon,
// and New rejects the combination.
func WithHorizon(h int) Option {
	return func(c *engineConfig) { c.params.Horizon = h }
}

// WithParallelism sets the Sweep worker-pool size.
func WithParallelism(workers int) Option {
	return func(c *engineConfig) { c.params.Parallelism = workers }
}

// WithRegistry resolves protocol names against reg instead of the
// default registry.
func WithRegistry(reg *Registry) Option {
	return func(c *engineConfig) { c.reg = reg }
}

// WithAnalyses resolves Engine.Analyze references against reg instead of
// the default analysis registry.
func WithAnalyses(reg *AnalysisRegistry) Option {
	return func(c *engineConfig) { c.analyses = reg }
}

// WithGovernor attaches a resource governor: the engine meters the byte
// capacity of its recycled buffers (knowledge arenas, run-kit slabs,
// sweep chunks) through it and stops retaining pooled buffers while the
// governor refuses retention. Long-running processes that share one
// governor across many engines should call Engine.Close when an engine
// is retired, so its pooled bytes return to the account.
func WithGovernor(g ResourceGovernor) Option {
	return func(c *engineConfig) { c.gov = g }
}
