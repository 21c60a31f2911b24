package setconsensus

import (
	"context"

	"setconsensus/internal/agg"
	"setconsensus/internal/baseline"
	"setconsensus/internal/check"
	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/experiments"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/topology"
	"setconsensus/internal/unbeat"
	"setconsensus/internal/wire"
)

// Model types.
type (
	// Adversary is an input vector plus a crash failure pattern (§2.1).
	Adversary = model.Adversary
	// FailurePattern lists the faulty processes' crashes, sorted by
	// process: each one's crash round and crash-round delivery set.
	FailurePattern = model.FailurePattern
	// Crash is one faulty process's entry in a FailurePattern; read and
	// write entries with its Crash, SetCrash and RemoveCrash methods.
	Crash = model.Crash
	// Builder assembles adversaries fluently.
	Builder = model.Builder
	// Params configures a protocol: n processes, crash bound t, degree k.
	Params = core.Params
	// Protocol is any decision protocol runnable by the oracle backend.
	Protocol = sim.Protocol
	// SimResult is the oracle simulator's raw result; Engine.Run wraps it
	// in the unified Result.
	SimResult = sim.Result
	// Decision is one process's (value, time) decision.
	Decision = sim.Decision
	// Graph is the knowledge substrate of one run: views, hidden nodes,
	// hidden capacity, persistence.
	Graph = knowledge.Graph
	// Task is a k-set consensus task specification (uniform or not).
	Task = check.Task
	// CollapseParams configures the Fig. 4 separation family.
	CollapseParams = model.CollapseParams
	// BaselineKind selects a literature comparator protocol.
	BaselineKind = baseline.Kind
	// Space enumerates an exhaustive adversary space (n, t, rounds,
	// values) for searches and conformance sweeps.
	Space = enum.Space
	// RandomParams bounds the seeded random adversary sampler behind the
	// "random" workload.
	RandomParams = model.RandomParams
	// Summary is the constant-memory aggregate of a streamed sweep:
	// per-protocol decision-time histograms, undecided and
	// agreement-violation counts, and wire-bit totals.
	Summary = agg.Summary
	// ProtocolSummary is one protocol's row of a Summary.
	ProtocolSummary = agg.ProtocolSummary
	// SearchParams configures the bounded protocol-space search of
	// internal/unbeat.
	SearchParams = unbeat.SearchParams
	// SearchReport is the outcome of a protocol-space search.
	SearchReport = unbeat.SearchReport
	// Deviation is one early-decision override of a candidate rule.
	Deviation = unbeat.Deviation
	// Witness is a dominating deviation found by the search: typed view
	// ids, values, and the strict-win adversary's fingerprint.
	Witness = unbeat.Witness
	// AnalysisReport is the structured outcome of Engine.Analyze.
	AnalysisReport = unbeat.AnalysisReport
	// AnalysisProgress is one streamed snapshot of Engine.AnalyzeStream.
	AnalysisProgress = unbeat.Progress
	// CannotDecideCert is the Lemma 3 unbeatability certificate.
	CannotDecideCert = unbeat.CannotDecideCert
	// ForcedCert is the Lemma 1 forced-decision certificate.
	ForcedCert = unbeat.ForcedCert
	// Subdivision is the paper's subdivided simplex Div σ (Appendix B.1).
	Subdivision = topology.Subdivision
	// ExperimentTable is one rendered paper-reproduction table.
	ExperimentTable = experiments.Table
)

// Baseline protocol kinds (§5's "all known protocols").
const (
	FloodMin    = baseline.FloodMin
	EarlyCount  = baseline.EarlyCount
	UEarlyCount = baseline.UEarlyCount
	PerRound    = baseline.PerRound
	UPerRound   = baseline.UPerRound
)

// NewBuilder starts an adversary over n processes with a default input.
func NewBuilder(n int, defaultValue int) *Builder { return model.NewBuilder(n, defaultValue) }

// NewOptmin builds the unbeatable nonuniform k-set consensus protocol
// Optmin[k] (§4, Theorem 1). Prefer NewProtocol("optmin", p) / Engine.Run
// for name-driven construction.
func NewOptmin(p Params) (Protocol, error) { return core.NewOptmin(p) }

// NewUPmin builds the uniform k-set consensus protocol u-Pmin[k] (§5,
// Theorem 3).
func NewUPmin(p Params) (Protocol, error) { return core.NewUPmin(p) }

// NewOpt0 builds the k=1 specialization Opt0 (unbeatable consensus, §3).
func NewOpt0(n, t int) (Protocol, error) { return core.NewOpt0(n, t) }

// NewUOpt0 builds the k=1 specialization u-Opt0 (uniform consensus).
func NewUOpt0(n, t int) (Protocol, error) { return core.NewUOpt0(n, t) }

// NewBaseline builds one of the literature comparators.
func NewBaseline(kind BaselineKind, p Params) (Protocol, error) { return baseline.New(kind, p) }

// Run executes a protocol against an adversary on the oracle simulator.
// It is the single-shot, pre-Engine entry point; batch workloads go
// through Engine.Sweep, which shares knowledge graphs across protocols.
func Run(p Protocol, adv *Adversary) *SimResult { return sim.Run(p, adv) }

// NewGraph computes the knowledge graph of an adversary up to horizon.
func NewGraph(adv *Adversary, horizon int) *Graph { return knowledge.New(adv, horizon) }

// Verify checks a finished oracle run against a task specification
// (Decision / Validity / (Uniform) k-Agreement). Unified Results verify
// themselves via Result.Verify.
func Verify(res *SimResult, task Task) error { return check.VerifyRun(res, task) }

// Collapse builds the Fig. 4 separation family on which u-Pmin decides at
// time 2 while every prior protocol needs ⌊t/k⌋+1.
func Collapse(p CollapseParams) (*Adversary, error) { return model.Collapse(p) }

// CollapseT returns the crash bound t of a Collapse configuration.
func CollapseT(p CollapseParams) int { return model.CollapseT(p) }

// HiddenPath builds the Fig. 1 hidden-path adversary.
func HiddenPath(n, depth int) (*Adversary, error) { return model.HiddenPath(n, depth) }

// HiddenChains builds the Fig. 2 hidden-chains adversary.
func HiddenChains(n, c, m int, chainValues []int, defaultValue int) (*Adversary, error) {
	return model.HiddenChains(n, c, m, chainValues, defaultValue)
}

// CannotDecide builds the Lemma 3 certificate that a high node with
// hidden capacity ≥ k cannot decide in any protocol dominating Optmin[k].
// Cancelling ctx aborts the certificate's forcing recursions promptly.
// Engine.Analyze with the "forced" family certifies whole runs on the
// worker pool.
func CannotDecide(ctx context.Context, g *Graph, i, m, k int) (*CannotDecideCert, error) {
	return unbeat.CannotDecide(ctx, g, i, m, k)
}

// Search runs the bounded protocol-space search for a deviation that
// dominates base (the computational content of Theorem 1), sequentially.
// Engine.Analyze with the "search:optmin" / "search:upmin" families runs
// the same staged pipeline on the engine's pooled run path and worker
// pool.
func Search(ctx context.Context, base Protocol, p SearchParams) (*SearchReport, error) {
	return unbeat.Search(ctx, base, p)
}

// DivK builds the paper's subdivision Div σ for degree k (Appendix B.1).
func DivK(k int) (*Subdivision, error) { return topology.DivK(k) }

// RunWire executes the Appendix E compact-message protocol (Optmin rule)
// and reports decisions, in fresh storage the caller may keep, plus
// per-link bit counts. Engine with WithBackend(Wire) is the name-driven
// equivalent.
func RunWire(p Params, adv *Adversary) (*wire.Result, error) {
	return wire.Run(wire.RuleOptmin, p, adv, new(sim.Scratch))
}

// Experiment regenerates one of the paper-reproduction tables (E1–E10).
func Experiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// ExperimentIDs lists the experiment ids in presentation order.
func ExperimentIDs() []string {
	reg := experiments.Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}
