package setconsensus

import (
	"fmt"
	"sync"

	"setconsensus/internal/agg"
	"setconsensus/internal/experiments"
)

// Aggregator folds streamed Results into a constant-memory Summary:
// per-protocol decision-time histograms, undecided and task-violation
// counts, and wire-bit totals. Engine.SweepSource drives one internally;
// build one explicitly to aggregate SweepSourceStream, Sweep or hand-run
// Results. Add is safe for concurrent use.
type Aggregator struct {
	mu    sync.Mutex
	sum   *agg.Summary
	tasks map[string]Task
	// tasksByIdx mirrors tasks in sweep ref order for the sharded fold
	// path, which addresses protocols by index instead of map lookup.
	tasksByIdx []Task
}

// SweepProgress is one streamed snapshot of a running aggregating sweep:
// the count of adversaries fully folded so far and the runs they
// contributed (adversaries × protocols — a worker folds all protocols
// of a claimed window's adversaries before counting them). It is the
// sweep-side analogue of AnalysisProgress, consumed by
// Engine.SweepSourceProgress and streamed over SSE by the job service.
// Total is the workload's adversary count when its Source reports one
// (every built-in workload does), 0 otherwise.
type SweepProgress struct {
	Adversaries int `json:"adversaries"`
	Runs        int `json:"runs"`
	Total       int `json:"total,omitempty"`
}

// NewAggregator builds an aggregator for the named protocols, verifying
// every run against the task its protocol claims to solve at the
// engine's degree. The workload label captions the summary. Duplicate
// refs are rejected: the summary keys rows by ref, so a repeated ref
// would fold two runs per adversary into one row and skew every count.
func (e *Engine) NewAggregator(workload string, refs []string) (*Aggregator, error) {
	if e.err != nil {
		return nil, e.err
	}
	tasks := make(map[string]Task, len(refs))
	tasksByIdx := make([]Task, 0, len(refs))
	for _, ref := range refs {
		if _, dup := tasks[ref]; dup {
			return nil, fmt.Errorf("engine: duplicate protocol %q in aggregated sweep", ref)
		}
		spec, err := e.reg.Lookup(ref)
		if err != nil {
			return nil, err
		}
		tasks[ref] = spec.Task(e.params.K)
		tasksByIdx = append(tasksByIdx, tasks[ref])
	}
	return &Aggregator{sum: agg.New(workload, refs), tasks: tasks, tasksByIdx: tasksByIdx}, nil
}

// fold computes one pooled run's observation from its worker's run
// buffer and bumps the worker's shard accumulator — the lock-free
// per-run half of the sharded aggregation contract (mergeShard is the
// once-per-worker other half). The run record gives the decision time,
// and the run is verified from its decider mask against the
// verification sets the worker prepared for the adversary; the bit
// counts are zero off the Wire backend, so they fold as nothing there.
// Nothing here retains the buffer.
func (a *Aggregator) fold(acc *agg.Acc, refIdx int, buf *runBuffer) {
	o := agg.Obs{Time: buf.simres.MaxCorrectDecisionTime(), Bits: int64(buf.bits.Total), MaxPairBits: buf.bits.MaxPair}
	if o.Time >= 0 {
		o.Violation = buf.verify.Verify(&buf.simres, a.tasksByIdx[refIdx]) != nil
	}
	acc.Observe(o)
}

// mergeShard folds a worker's accumulators (indexed like the sweep's
// refs) into the summary under the aggregator lock — the only
// synchronization point of a sharded sweep — and resets them.
func (a *Aggregator) mergeShard(shard []agg.Acc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range shard {
		shard[i].FlushTo(a.sum.Protocols[i])
	}
}

// Add folds one run into the summary. Results whose Ref the aggregator
// was not built for are counted against nothing and ignored. Runs where
// a correct process never decided land in the Undecided column only;
// Violations counts validity and k-agreement failures among runs that
// did decide.
func (a *Aggregator) Add(r *Result) {
	o := agg.Obs{Time: r.MaxCorrectTime}
	if task, ok := a.tasks[r.Ref]; ok && r.MaxCorrectTime >= 0 {
		o.Violation = r.Verify(task) != nil
	}
	if r.Bits != nil {
		o.Bits = int64(r.Bits.Total)
		o.MaxPairBits = r.Bits.MaxPair
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_ = a.sum.Observe(r.Ref, o)
}

// Summary returns a deep-copy snapshot of the aggregate so far.
func (a *Aggregator) Summary() *Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum.Clone()
}

// Table renders the current aggregate in the experiment table format.
func (a *Aggregator) Table() *ExperimentTable {
	return experiments.SweepTable(a.Summary())
}

// SummaryTable renders a Summary in the experiment table format.
func SummaryTable(s *Summary) *ExperimentTable { return experiments.SweepTable(s) }
