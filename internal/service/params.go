// Package service implements setconsensusd's job layer: a long-running
// HTTP/JSON server that accepts sweep and analysis jobs over the Engine
// facade, runs them on a bounded queue with per-job deadlines and a
// configurable worker pool, streams incremental progress snapshots over
// SSE, and serves finished Summary/AnalysisReport JSON from a bounded
// in-memory result store.
//
// The package follows the repo's configuration idiom end to end: a typed
// Params with Default and Validate enforcing hard budgets (max space
// size per job, queue depth, worker count, per-job deadline, result
// bound), so a misconfigured server refuses to start instead of failing
// under load, and an out-of-budget job is rejected at submission with a
// typed error instead of running away with the machine.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"setconsensus/internal/chaos"
)

// The typed budget errors. Validate and job admission wrap them with
// detail, so callers branch with errors.Is while logs keep the numbers.
var (
	// ErrNoWorkers rejects a worker pool of zero: a server that can
	// accept jobs but never run them is a misconfiguration, not a mode.
	ErrNoWorkers = errors.New("service: need at least one job worker")
	// ErrNoDeadline rejects an absent per-job deadline. Every job runs
	// under a context deadline — unbounded jobs would pin worker slots
	// forever and starve the queue.
	ErrNoDeadline = errors.New("service: need a positive per-job deadline")
	// ErrQueueDepth rejects a non-positive queue bound.
	ErrQueueDepth = errors.New("service: need a positive queue depth")
	// ErrResultBound rejects a non-positive result-store bound.
	ErrResultBound = errors.New("service: need a positive result-store bound")
	// ErrSpaceBudget rejects (at admission) or aborts (at runtime) a job
	// whose adversary space exceeds MaxSpaceSize.
	ErrSpaceBudget = errors.New("service: adversary space exceeds the per-job budget")
	// ErrMemCeiling rejects an inverted memory-ceiling pair: a soft
	// ceiling above the hard one could reject admissions before ever
	// shedding, which is the degradation order backwards.
	ErrMemCeiling = errors.New("service: soft memory ceiling must not exceed the hard ceiling")
	// ErrShedding rejects a submission while live metered bytes exceed
	// the soft memory ceiling: the server keeps running what it
	// admitted and answers new work with HTTP 429 + Retry-After until
	// the account drains.
	ErrShedding = errors.New("service: shedding load over the soft memory ceiling")
)

// Params is the full configuration of a job server. Construct it with
// Default and override fields; New validates it.
type Params struct {
	// Addr is the listen address of cmd/setconsensusd (the embedded
	// Server itself is transport-agnostic — tests mount Handler on
	// httptest). Empty is valid for embedded use.
	Addr string

	// Workers is the number of jobs run concurrently. Each running job
	// gets its own Engine whose sweep/analysis stages parallelize to
	// EngineParallelism, so total CPU demand is roughly
	// Workers × EngineParallelism.
	Workers int

	// QueueDepth bounds the jobs accepted but not yet running. A full
	// queue rejects submissions with ErrQueueFull (HTTP 503) instead of
	// buffering without bound.
	QueueDepth int

	// MaxSpaceSize is the per-job adversary budget. Jobs whose workload
	// reports a count above it — every built-in workload does, an
	// exhaustive space its exact canonical count — are rejected at
	// submission; sources that cannot be sized up front are cancelled
	// mid-run the moment they exceed it. Analysis jobs are sized by the
	// count of the space their search compiles (the certificate families
	// enumerate none). Every path surfaces ErrSpaceBudget.
	MaxSpaceSize int

	// JobDeadline is the hard per-job context deadline. Requests may ask
	// for less via timeoutMs, never more.
	JobDeadline time.Duration

	// ResultBound bounds the finished (done/failed/cancelled) jobs the
	// store retains, FIFO-evicted; queued and running jobs are always
	// retained.
	ResultBound int

	// EngineParallelism is the per-job Engine worker-pool size.
	EngineParallelism int

	// ProgressInterval paces the progress snapshots a running sweep job
	// publishes to its SSE subscribers: at most one per interval, plus
	// the opening and closing ones. Analysis jobs are paced by the
	// engine's own 100ms interval.
	ProgressInterval time.Duration

	// SoftMemBytes is the governor's soft memory ceiling: while live
	// metered bytes (builder arenas, run buffers, window buffers) exceed
	// it, engines stop recycling pooled buffers and the server sheds new
	// submissions with 429 (+Retry-After) and flips /readyz to 503.
	// Running jobs are never disturbed. 0 disables the ceiling.
	SoftMemBytes int64

	// HardMemBytes is the governor's hard memory ceiling: submissions
	// arriving while live bytes exceed it are rejected with a typed
	// govern.ErrMemoryBudget (HTTP 429). It only gates admission — the
	// enforcement backstop for total process memory is
	// debug.SetMemoryLimit/GOMEMLIMIT, which cmd/setconsensusd wires to
	// the same flag. 0 disables the ceiling.
	HardMemBytes int64

	// ProgressDeadline is the stuck-job watchdog: a running job whose
	// progress feed has not advanced within this duration is cancelled
	// with govern.ErrStalled as the cause and fails typed. 0 disables
	// the watchdog.
	ProgressDeadline time.Duration

	// Chaos optionally injects faults into the job path (the "panic"
	// point fires inside a running job's worker); nil injects nothing.
	// Test and smoke surface only.
	Chaos chaos.Injector
}

// Default returns the documented defaults: 2 concurrent jobs, a queue of
// 64, a 1e7-adversary space budget, a 10-minute deadline, 256 retained
// results, engine parallelism NumCPU, 100ms progress snapshots.
func Default() Params {
	return Params{
		Addr:              ":8372",
		Workers:           2,
		QueueDepth:        64,
		MaxSpaceSize:      10_000_000,
		JobDeadline:       10 * time.Minute,
		ResultBound:       256,
		EngineParallelism: runtime.NumCPU(),
		ProgressInterval:  100 * time.Millisecond,
	}
}

// Validate ensures the parameters fall within operating ranges,
// wrapping the typed budget errors with the offending values.
func (p Params) Validate() error {
	if p.Workers < 1 {
		return fmt.Errorf("%w (got %d)", ErrNoWorkers, p.Workers)
	}
	if p.JobDeadline <= 0 {
		return fmt.Errorf("%w (got %v)", ErrNoDeadline, p.JobDeadline)
	}
	if p.QueueDepth < 1 {
		return fmt.Errorf("%w (got %d)", ErrQueueDepth, p.QueueDepth)
	}
	if p.ResultBound < 1 {
		return fmt.Errorf("%w (got %d)", ErrResultBound, p.ResultBound)
	}
	if p.MaxSpaceSize < 1 {
		return fmt.Errorf("%w: budget must be ≥ 1 (got %d)", ErrSpaceBudget, p.MaxSpaceSize)
	}
	if p.EngineParallelism < 1 {
		return fmt.Errorf("service: need engine parallelism ≥ 1, got %d", p.EngineParallelism)
	}
	if p.ProgressInterval <= 0 {
		return fmt.Errorf("service: need a positive progress interval, got %v", p.ProgressInterval)
	}
	if p.SoftMemBytes < 0 || p.HardMemBytes < 0 {
		return fmt.Errorf("service: memory ceilings must be ≥ 0 (0 = unlimited), got soft %d hard %d",
			p.SoftMemBytes, p.HardMemBytes)
	}
	if p.SoftMemBytes > 0 && p.HardMemBytes > 0 && p.SoftMemBytes > p.HardMemBytes {
		return fmt.Errorf("%w (soft %d > hard %d)", ErrMemCeiling, p.SoftMemBytes, p.HardMemBytes)
	}
	if p.ProgressDeadline < 0 {
		return fmt.Errorf("service: progress deadline must be ≥ 0 (0 = no watchdog), got %v", p.ProgressDeadline)
	}
	return nil
}
