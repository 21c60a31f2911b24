package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	setconsensus "setconsensus"

	"setconsensus/internal/chaos"
	"setconsensus/internal/govern"
)

// runner.go executes one admitted job on the Engine facade: it builds a
// per-job engine from the request's parameters (validated eagerly via
// NewEngine), runs the sweep or analysis under the job's context
// deadline, relays the engine's progress snapshots
// (SweepProgress/AnalysisProgress) into the job's SSE feed, and maps the
// outcome onto the terminal states.

// engineFor builds the per-job engine from the defaults and the
// request's parameters, validated eagerly by NewEngine.
func (s *Server) engineFor(req *JobRequest) (*setconsensus.Engine, error) {
	p := setconsensus.DefaultEngineParams()
	p.Parallelism = s.params.EngineParallelism
	if req.Params.K > 0 {
		p.K = req.Params.K
	}
	if req.Params.Backend != "" {
		b, err := setconsensus.ParseBackend(req.Params.Backend)
		if err != nil {
			return nil, err
		}
		p.Backend = b
	}
	switch {
	case req.Params.T != nil:
		p.T = *req.Params.T
	case req.Kind == KindSweep:
		// The workload-sweep default, as in the CLIs: each adversary's
		// own failure count.
		p.T = setconsensus.PatternCrashBound
	}
	return setconsensus.NewEngine(p, setconsensus.WithGovernor(s.gov))
}

// admit resolves and budget-checks a request before it is queued,
// returning the resolved source for sweep jobs. Unknown references and
// over-budget spaces fail here, synchronously, so a bad submission is a
// 4xx instead of a failed job.
func (s *Server) admit(req *JobRequest) (setconsensus.Source, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	eng, err := s.engineFor(req)
	if err != nil {
		return nil, err
	}
	if req.Kind == KindAnalysis {
		if _, err := setconsensus.ParseAnalysis(req.Analysis); err != nil {
			return nil, err
		}
		// Search families enumerate an exhaustive space at the job's
		// degree and keep every compiled run, so they are sized like
		// sweeps; certificate families enumerate none and report no count.
		n, ok, err := setconsensus.DefaultAnalyses().Count(req.Analysis, eng.Params().K)
		if err != nil {
			return nil, err
		}
		if ok && n > s.params.MaxSpaceSize {
			return nil, fmt.Errorf("%w: analysis %q enumerates %d adversaries, budget %d",
				ErrSpaceBudget, req.Analysis, n, s.params.MaxSpaceSize)
		}
		return nil, nil
	}
	src, err := resolveWorkload(req)
	if err != nil {
		return nil, err
	}
	if n, known := src.Count(); known && n > s.params.MaxSpaceSize {
		return nil, fmt.Errorf("%w: workload %q yields %d adversaries, budget %d",
			ErrSpaceBudget, req.Workload, n, s.params.MaxSpaceSize)
	}
	return src, nil
}

// resolveWorkload parses a sweep job's workload reference and scopes it
// to the request's offset window, when one is set. The window applies
// before budget sizing, so a range-scoped job over a space far beyond
// the budget is admitted on its window (RangeSource's Count is the
// window's) — the admission contract coordinated fleets rely on. A zero
// limit with a nonzero offset means the rest of the stream.
func resolveWorkload(req *JobRequest) (setconsensus.Source, error) {
	src, err := setconsensus.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	if req.Offset == 0 && req.Limit == 0 {
		return src, nil
	}
	limit := req.Limit
	if limit == 0 {
		limit = math.MaxInt
	}
	return setconsensus.RangeSource(src, req.Offset, limit), nil
}

// deadlineFor picks the job's context deadline: the server's hard bound,
// tightened by the request's timeoutMs when smaller.
func (s *Server) deadlineFor(req *JobRequest) time.Duration {
	d := s.params.JobDeadline
	if req.Params.TimeoutMS > 0 {
		if r := time.Duration(req.Params.TimeoutMS) * time.Millisecond; r < d {
			d = r
		}
	}
	return d
}

// run executes one claimed job to a terminal state. baseCtx is the
// server's lifetime context: server shutdown after the drain grace
// cancels it, which cancels every running job.
//
// The body is a panic boundary: engines recover their own worker
// panics into typed errors, and anything that still escapes (the job
// switch itself, progress relays, a workload's Count) is converted
// here into a failed job with the stack retained — one bad workload
// must never take the daemon down.
func (s *Server) run(baseCtx context.Context, j *job) {
	// The cancel func is installed as the job is published as running: a
	// Cancel that sees StateRunning must find it, or the cancellation is
	// lost and the job runs on to its deadline. A job a Cancel finished
	// after a worker took it off the queue is not run at all.
	jobCtx, cancel := context.WithCancelCause(baseCtx)
	defer cancel(nil)
	if !j.setRunning(cancel) {
		return
	}
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	ctx, cancelTimeout := context.WithTimeout(jobCtx, s.deadlineFor(&j.req))
	defer cancelTimeout()

	// The stuck-job watchdog: wd.Touch in the progress relays marks
	// advancement; Watch cancels the job with govern.ErrStalled as the
	// cause when the feed goes quiet past the deadline. cancelTimeout
	// runs before the <-wdDone wait (LIFO defers), so Watch's context is
	// dead by the time we block on its exit — no shutdown deadlock.
	var wd *govern.Watchdog
	if d := s.params.ProgressDeadline; d > 0 {
		wd = govern.NewWatchdog()
		wdDone := make(chan struct{})
		defer func() { cancelTimeout(); <-wdDone }()
		go func() {
			defer close(wdDone)
			wd.Watch(ctx, d, func(idle time.Duration) {
				s.gov.NoteWatchdog()
				cancel(fmt.Errorf("%w: no progress for %v (deadline %v)", govern.ErrStalled, idle.Round(time.Millisecond), d))
			})
		}()
	}

	eng, err := s.engineFor(&j.req)
	if err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}
	// Return the engine's pooled bytes to the governor whatever path the
	// job leaves by — a panicking job must not strand its account.
	defer eng.Close()

	err = func() (err error) {
		defer govern.Capture("service: job "+j.id, &err)
		if fire, _ := chaos.Fire(s.params.Chaos, chaos.PointPanic); fire {
			panic("chaos: injected job panic")
		}
		switch j.req.Kind {
		case KindSweep:
			return s.runSweep(ctx, cancel, eng, wd, j)
		case KindAnalysis:
			return s.runAnalysis(ctx, eng, wd, j)
		default:
			return fmt.Errorf("service: unknown job kind %q", j.req.Kind)
		}
	}()

	st := eng.Stats()
	s.metrics.graphsRebuilt.Add(st.GraphsRebuilt)
	s.metrics.graphsRevived.Add(st.GraphsRevived)
	s.metrics.graphsPatched.Add(st.GraphsPatched)
	s.metrics.runKitHits.Add(st.RunKitHits)
	s.metrics.runKitMisses.Add(st.RunKitMisses)
	s.metrics.chunkHits.Add(st.ChunkHits)
	s.metrics.chunkMisses.Add(st.ChunkMisses)

	switch {
	case err == nil:
		s.finishJob(j, StateDone, nil)
	case errors.Is(context.Cause(ctx), ErrCancelled):
		s.finishJob(j, StateCancelled, ErrCancelled)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, StateFailed, fmt.Errorf("service: job deadline exceeded: %w", err))
	default:
		if _, ok := govern.AsPanic(err); ok {
			s.gov.NotePanic()
		}
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, err) && !errors.Is(cause, context.Canceled) {
			err = fmt.Errorf("%w (%v)", cause, err)
		}
		s.finishJob(j, StateFailed, err)
	}
}

// finishJob applies a job's first terminal transition; a job already
// terminal stays as it is, and nothing is recorded twice. The store
// records the job (evicting the oldest finished jobs past ResultBound)
// and its outcome counter moves under the job's lock, before the
// terminal event goes out: a client that saw the event, or reads the
// job's terminal status, finds the store and the counters settled. A
// job that has started also has its context cancelled with err as the
// cause: finished from outside its run — by a Cancel that read the job
// queued just before a worker started it — the run must not go on, and
// finished by its run, the context has nothing left to do.
func (s *Server) finishJob(j *job, state JobState, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	s.store.markFinished(j.id)
	switch state {
	case StateDone:
		s.metrics.done.Add(1)
	case StateCancelled:
		s.metrics.cancelled.Add(1)
	default:
		s.metrics.failed.Add(1)
	}
	j.finishLocked(state, err)
	if j.cancel != nil {
		j.cancel(err)
	}
}

// runSweep streams the workload through the engine's aggregating sweep,
// relaying SweepProgress snapshots and enforcing the space budget at
// runtime for sources that could not be sized at admission: the moment
// the fold passes MaxSpaceSize adversaries, the job's context is
// cancelled with ErrSpaceBudget.
func (s *Server) runSweep(ctx context.Context, cancel context.CancelCauseFunc, eng *setconsensus.Engine, wd *govern.Watchdog, j *job) error {
	src, err := resolveWorkload(&j.req)
	if err != nil {
		return err
	}
	budget := s.params.MaxSpaceSize
	var lastRuns int64
	sum, err := eng.SweepSourceProgress(ctx, j.req.Refs, src, s.params.ProgressInterval,
		func(p setconsensus.SweepProgress) {
			wd.Touch()
			if p.Adversaries > budget {
				cancel(fmt.Errorf("%w: workload %q passed %d adversaries, budget %d",
					ErrSpaceBudget, j.req.Workload, p.Adversaries, budget))
			}
			s.metrics.runsTotal.Add(int64(p.Runs) - lastRuns)
			lastRuns = int64(p.Runs)
			j.setProgress(JobProgress{Stage: "sweep", Adversaries: p.Adversaries, Runs: p.Runs, Total: p.Total})
		})
	if err != nil {
		if cause := context.Cause(ctx); cause != nil && errors.Is(cause, ErrSpaceBudget) {
			return cause
		}
		return err
	}
	j.mu.Lock()
	j.summary = sum
	j.mu.Unlock()
	return nil
}

// runAnalysis executes a named analysis, relaying the pipeline's stage
// snapshots. Only the compile stage runs the protocol, one run per
// adversary, so only its progress counts toward runs_total: the later
// stages count candidates, pairs and certified nodes.
func (s *Server) runAnalysis(ctx context.Context, eng *setconsensus.Engine, wd *govern.Watchdog, j *job) error {
	var lastRuns int
	rep, err := eng.AnalyzeStream(ctx, j.req.Analysis, func(p setconsensus.AnalysisProgress) {
		wd.Touch()
		if p.Stage == "compile" {
			s.metrics.runsTotal.Add(int64(p.Done - lastRuns))
			lastRuns = p.Done
		}
		j.setProgress(JobProgress{Stage: p.Stage, Done: p.Done, Total: p.Total})
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.analysis = rep
	j.mu.Unlock()
	return nil
}
