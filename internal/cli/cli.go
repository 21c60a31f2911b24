// Package cli holds the workload-sweep and analysis flows shared by the
// command-line binaries, so cmd/setconsensus and cmd/experiments render
// identical summaries and apply identical defaults instead of drifting
// copies. Every flow takes a context — the binaries install
// signal.NotifyContext and -timeout around it — and each has a remote
// twin that submits the same reference to a setconsensusd server and
// renders the returned result identically, so `-server` output diffs
// clean against local output.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/chaos"
	"setconsensus/internal/coord"
	"setconsensus/internal/service"
)

// ExitCancelled is the distinct exit code of a run cut short by
// SIGINT/SIGTERM or -timeout (128+SIGINT by shell convention), so
// scripts can tell "cancelled" from "claim failed" (1) and "bad
// invocation" (2).
const ExitCancelled = 130

// Cancelled reports whether err is a context cancellation or deadline
// expiry — the binaries' exit-code branch.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// SplitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// SweepWorkload parses the workload reference, streams it through the
// named protocols on the given backend, prints the summary table to w,
// and returns the summary for the caller's exit-code policy. A t < 0
// defaults to PatternCrashBound — each adversary's own failure count,
// the bound the named family curves are designed for (and the one the
// pre-workload CLI derived via CollapseT); pass an explicit t ≥ 0 to pin
// an a-priori bound across the sweep. Cancelling ctx aborts the sweep
// mid-stream with ctx's error.
func SweepWorkload(ctx context.Context, w io.Writer, workloadRef string, refs []string, backend setconsensus.BackendKind, k, t int) (*setconsensus.Summary, error) {
	src, err := setconsensus.ParseWorkload(workloadRef)
	if err != nil {
		return nil, err
	}
	if t < 0 {
		t = setconsensus.PatternCrashBound
	}
	eng := setconsensus.New(
		setconsensus.WithBackend(backend),
		setconsensus.WithCrashBound(t),
		setconsensus.WithDegree(k),
	)
	sum, err := eng.SweepSource(ctx, refs, src)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, setconsensus.SummaryTable(sum).Render())
	return sum, nil
}

// CoordinateOpts configures a coordinated (sharded, checkpointed)
// workload sweep.
type CoordinateOpts struct {
	// Workers is the number of in-process engine workers (each with its
	// own Engine over the shared workload source).
	Workers int
	// Join lists setconsensusd base URLs to enlist as remote workers;
	// each receives range-scoped sweep jobs.
	Join []string
	// Checkpoint, when non-empty, enables durable resume: every
	// completed range is appended to the journal at this path, and an
	// existing journal is resumed from.
	Checkpoint string
	// RangeSize overrides the adversaries-per-range default (0 = keep).
	RangeSize int
	// Lease overrides the per-range lease duration (0 = keep).
	Lease time.Duration
	// Chaos, when non-empty, is a chaos.ParseSpec fault-injection spec
	// (e.g. "seed=7,crash=0.1,torn#1") threaded through the coordinator
	// and every worker. The injected faults exercise the retry, breaker,
	// and checkpoint-recovery paths; the rendered summary must still be
	// byte-identical to the faultless run. Fault counts and coordinator
	// stats are reported to stderr, never stdout.
	Chaos string
}

// CoordinateWorkload is SweepWorkload run through the internal/coord
// coordinator: the workload's offset space is carved into ranges,
// leased to the in-process and remote workers, and the partial
// summaries merge into the exact summary — and the exact rendered
// table — the monolithic sweep produces. On cancellation the error is
// returned with the checkpoint holding every range completed so far, so
// re-running the same invocation resumes instead of restarting.
func CoordinateWorkload(ctx context.Context, w io.Writer, workloadRef string, refs []string, backend setconsensus.BackendKind, k, t int, opts CoordinateOpts) (*setconsensus.Summary, error) {
	src, err := setconsensus.ParseWorkload(workloadRef)
	if err != nil {
		return nil, err
	}
	p := coord.Default()
	if opts.RangeSize > 0 {
		p.RangeSize = opts.RangeSize
	}
	if opts.Lease > 0 {
		p.Lease = opts.Lease
	}
	p.CheckpointPath = opts.Checkpoint
	if n, known := src.Count(); known {
		p.Total = n
	}
	var inj *chaos.Seeded
	if opts.Chaos != "" {
		inj, err = chaos.ParseSpec(opts.Chaos)
		if err != nil {
			return nil, err
		}
		p.Chaos = inj
	}
	c, err := coord.New(src.Label(), refs, p)
	if err != nil {
		return nil, err
	}

	tLocal := t
	if tLocal < 0 {
		tLocal = setconsensus.PatternCrashBound // the workload-sweep default, as in SweepWorkload
	}
	var workers []coord.Worker
	for i := 0; i < opts.Workers; i++ {
		eng := setconsensus.New(
			setconsensus.WithBackend(backend),
			setconsensus.WithCrashBound(tLocal),
			setconsensus.WithDegree(k),
		)
		ew := coord.NewEngineWorker(fmt.Sprintf("local-%d", i), eng, refs, src, 0)
		if inj != nil {
			ew.WithChaos(inj)
		}
		workers = append(workers, ew)
	}
	for i, base := range opts.Join {
		rw := coord.NewRemoteWorker(fmt.Sprintf("remote-%d(%s)", i, base), base,
			service.JobRequest{
				Refs:     refs,
				Workload: workloadRef,
				Params:   jobParams(backend, k, t), // t < 0 by omission: the server's own sweep default
			})
		if inj != nil {
			rw.WithChaos(inj)
		}
		workers = append(workers, rw)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("coordinated sweep needs -workers and/or -join")
	}

	sum, err := c.Run(ctx, workers, nil)
	if inj != nil {
		// Chaos accounting goes to stderr only: stdout must stay
		// byte-identical to the monolithic sweep, faults or not.
		reportChaos(os.Stderr, inj, c.Stats())
	}
	if err != nil {
		if Cancelled(err) && opts.Checkpoint != "" {
			fmt.Fprintf(w, "sweep interrupted; checkpoint saved to %s — re-run to resume\n", opts.Checkpoint)
		}
		return nil, err
	}
	fmt.Fprintln(w, setconsensus.SummaryTable(sum).Render())
	return sum, nil
}

// reportChaos prints the fault-injection tally and the coordinator's
// robustness counters after a chaotic coordinated run.
func reportChaos(w io.Writer, inj *chaos.Seeded, st coord.Stats) {
	faults := inj.String()
	if faults == "" {
		faults = "none"
	}
	fmt.Fprintf(w, "chaos: injected %s\n", faults)
	fmt.Fprintf(w, "coord: ranges=%d retries=%d refunds=%d expiries=%d trips=%d probations=%d quarantined=%d ckpt-tails-dropped=%d\n",
		st.RangesDone, st.RangeRetries, st.AttemptsRefunded, st.LeaseExpiries,
		st.BreakerTrips, st.ProbationGrants, st.QuarantinedWorkers, st.CheckpointTailsDropped)
}

// RunAnalysis resolves an analysis reference ("search:optmin:width=2",
// "forced:k=3", ...), runs it through Engine.AnalyzeStream on the given
// backend (the search families require Oracle and error otherwise — the
// engine enforces it, so a -backend wire typo fails loudly instead of
// silently running on Oracle), prints per-stage progress lines followed
// by the report table to w, and returns the report for the caller's
// exit-code policy (a beaten search is a claim violation). k ≥ 1 sets
// the engine degree the families default to.
func RunAnalysis(ctx context.Context, w io.Writer, ref string, backend setconsensus.BackendKind, k int) (*setconsensus.AnalysisReport, error) {
	opts := []setconsensus.Option{setconsensus.WithBackend(backend)}
	if k >= 1 {
		opts = append(opts, setconsensus.WithDegree(k))
	}
	eng := setconsensus.New(opts...)
	lastStage := ""
	rep, err := eng.AnalyzeStream(ctx, ref, func(p setconsensus.AnalysisProgress) {
		if p.Stage == lastStage {
			return
		}
		lastStage = p.Stage
		fmt.Fprintf(w, "stage %s...\n", p.Stage)
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, setconsensus.AnalysisTable(rep).Render())
	return rep, nil
}

// ListAnalyses prints the registered analysis families with their
// parameter vocabulary, mirroring the protocol and workload listings.
func ListAnalyses(w io.Writer) {
	for _, spec := range setconsensus.DefaultAnalyses().Specs() {
		fmt.Fprintf(w, "%-14s %s\n", spec.Name, spec.Summary)
		fmt.Fprintf(w, "%-14s   params: %s\n", "", spec.Params)
	}
}

// jobParams maps the shared CLI flags onto a job's engine parameters.
// The t < 0 workload default (each adversary's failure count) is the
// server's own sweep default, so it is expressed by omission.
func jobParams(backend setconsensus.BackendKind, k, t int) service.JobParams {
	p := service.JobParams{Backend: backend.String()}
	if k >= 1 {
		p.K = k
	}
	if t >= 0 {
		p.T = &t
	}
	return p
}

// SweepWorkloadRemote is SweepWorkload against a setconsensusd server:
// it submits the same workload reference as a sweep job, waits on the
// job's SSE stream, and renders the returned Summary through the same
// table path, so remote output is byte-identical to local output for
// the same reference.
func SweepWorkloadRemote(ctx context.Context, w io.Writer, server, workloadRef string, refs []string, backend setconsensus.BackendKind, k, t int) (*setconsensus.Summary, error) {
	c := &service.Client{Base: server}
	st, err := c.SubmitAndWait(ctx, service.JobRequest{
		Kind:     service.KindSweep,
		Refs:     refs,
		Workload: workloadRef,
		Params:   jobParams(backend, k, t),
	}, nil)
	if err != nil {
		return nil, err
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintln(w, setconsensus.SummaryTable(st.Summary).Render())
	return st.Summary, nil
}

// RunAnalysisRemote is RunAnalysis against a setconsensusd server,
// printing the same per-stage progress lines from the job's SSE stream
// followed by the same report table.
func RunAnalysisRemote(ctx context.Context, w io.Writer, server, ref string, backend setconsensus.BackendKind, k int) (*setconsensus.AnalysisReport, error) {
	c := &service.Client{Base: server}
	lastStage := ""
	st, err := c.SubmitAndWait(ctx, service.JobRequest{
		Kind:     service.KindAnalysis,
		Analysis: ref,
		Params:   jobParams(backend, k, -1),
	}, func(p service.JobProgress) {
		if p.Stage == lastStage {
			return
		}
		lastStage = p.Stage
		fmt.Fprintf(w, "stage %s...\n", p.Stage)
	})
	if err != nil {
		return nil, err
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintln(w, setconsensus.AnalysisTable(st.Analysis).Render())
	return st.Analysis, nil
}
