package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	setconsensus "setconsensus"
)

// JobKind discriminates what a job runs: an aggregating workload sweep
// or a named unbeatability analysis.
const (
	KindSweep    = "sweep"
	KindAnalysis = "analysis"
)

// JobState is the lifecycle of a job. Transitions are monotone:
// queued → running → one of the three terminal states (done, failed,
// cancelled); a queued job cancelled before a worker claims it skips
// running.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobParams carries the engine knobs of one job, mirroring the CLI
// flags: k is the coordination degree, t the crash bound (absent means
// each adversary's own failure count, the workload-sweep default),
// backend the execution backend name, timeoutMs an optional per-job
// deadline below the server's hard JobDeadline.
type JobParams struct {
	K         int    `json:"k,omitempty"`
	T         *int   `json:"t,omitempty"`
	Backend   string `json:"backend,omitempty"`
	TimeoutMS int64  `json:"timeoutMs,omitempty"`
}

// JobRequest is the POST /v1/jobs payload: a kind, the protocol refs
// and workload reference (sweeps) or the analysis reference (analyses),
// and the engine parameters. References resolve through the same
// Workload/Analysis registries as the CLIs, so anything expressible as
// `setconsensus -workload/-analyze` is expressible as a job.
type JobRequest struct {
	Kind     string    `json:"kind"`
	Refs     []string  `json:"refs,omitempty"`
	Workload string    `json:"workload,omitempty"`
	Analysis string    `json:"analysis,omitempty"`
	Params   JobParams `json:"params"`

	// Offset/Limit scope a sweep job to the workload's offset window
	// [offset, offset+limit) — the range jobs a sweep coordinator
	// (internal/coord) fans out across a fleet. Limit 0 with a nonzero
	// offset means "the rest of the stream"; both zero means the whole
	// workload, the ordinary un-scoped job. Range-scoped jobs are sized
	// against MaxSpaceSize by their window, not the full space, so a
	// fleet can collectively sweep a space far beyond any one server's
	// per-job budget.
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// validate checks the request shape (not the budgets — admission does
// that with the resolved workload in hand).
func (r *JobRequest) validate() error {
	switch r.Kind {
	case KindSweep:
		if r.Workload == "" {
			return fmt.Errorf("service: sweep job needs a workload reference")
		}
		if len(r.Refs) == 0 {
			return fmt.Errorf("service: sweep job needs at least one protocol ref")
		}
		if r.Analysis != "" {
			return fmt.Errorf("service: sweep job cannot carry an analysis reference")
		}
	case KindAnalysis:
		if r.Analysis == "" {
			return fmt.Errorf("service: analysis job needs an analysis reference")
		}
		if r.Workload != "" || len(r.Refs) > 0 {
			return fmt.Errorf("service: analysis job cannot carry workload/refs")
		}
		if r.Offset != 0 || r.Limit != 0 {
			return fmt.Errorf("service: analysis job cannot carry an offset range")
		}
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q | %q)", r.Kind, KindSweep, KindAnalysis)
	}
	if r.Params.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeoutMs %d", r.Params.TimeoutMS)
	}
	if r.Offset < 0 || r.Limit < 0 {
		return fmt.Errorf("service: negative job range offset=%d limit=%d", r.Offset, r.Limit)
	}
	return nil
}

// JobProgress is the unified progress snapshot streamed over SSE: sweep
// jobs fill Adversaries/Runs (stage "sweep"), analysis jobs fill
// Stage/Done/Total with the pipeline stage snapshots ("compile",
// "width-1", "width-2", "certify").
type JobProgress struct {
	Stage       string `json:"stage"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	Adversaries int    `json:"adversaries,omitempty"`
	Runs        int    `json:"runs,omitempty"`
}

// JobStatus is the wire representation of a job: GET /v1/jobs/{id}
// returns it, SSE terminal events carry it, and the result payload
// (Summary or AnalysisReport) is embedded once the job is done.
type JobStatus struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind"`
	State    JobState     `json:"state"`
	Request  JobRequest   `json:"request"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Error    string       `json:"error,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`

	Summary  *setconsensus.Summary        `json:"summary,omitempty"`
	Analysis *setconsensus.AnalysisReport `json:"analysis,omitempty"`
}

// job is the server-side state of one submitted job. The mutex guards
// every mutable field; subscribers receive coalesced progress updates
// and a guaranteed terminal event.
type job struct {
	id  string
	req JobRequest

	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	progress *JobProgress
	summary  *setconsensus.Summary
	analysis *setconsensus.AnalysisReport
	subs     map[chan Event]struct{}
}

// Event is one SSE frame: Name is the event field ("state", "progress",
// or a terminal state name), Status the payload snapshot.
type Event struct {
	Name   string
	Status *JobStatus
}

// ErrCancelled is the cancellation cause a DELETE installs; jobs whose
// context dies with it finish in StateCancelled rather than StateFailed.
var ErrCancelled = errors.New("service: job cancelled")

// status snapshots the job under its lock.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() *JobStatus {
	s := &JobStatus{
		ID:      j.id,
		Kind:    j.req.Kind,
		State:   j.state,
		Request: j.req,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.progress != nil {
		p := *j.progress
		s.Progress = &p
	}
	s.Summary = j.summary
	s.Analysis = j.analysis
	return s
}

// subscribe registers an SSE consumer. The returned channel immediately
// carries a "state" snapshot (including, for already-terminal jobs, the
// final state, so late subscribers never hang), then coalesced progress
// events, then exactly one terminal event, after which it is closed.
func (j *job) subscribe() chan Event {
	ch := make(chan Event, 8)
	j.mu.Lock()
	defer j.mu.Unlock()
	ch <- Event{Name: "state", Status: j.statusLocked()}
	if j.state.Terminal() {
		ch <- Event{Name: string(j.state), Status: j.statusLocked()}
		close(ch)
		return ch
	}
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch
}

// unsubscribe detaches a consumer (client went away mid-stream).
func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// publishLocked fans an event out without blocking the runner: a slow
// subscriber's buffer drops the oldest progress frame first (terminal
// events are delivered after progress frames are drained by the SSE
// writer, and the channel close is the backstop).
func (j *job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch: // drop the oldest frame
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// setRunning transitions queued → running and installs the job's cancel
// func in the same step, so a Cancel that sees StateRunning finds it. It
// refuses a job that is already terminal — one a Cancel finished after
// a worker took it off the queue — and reports whether the job may run.
func (j *job) setRunning(cancel context.CancelCauseFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	j.publishLocked(Event{Name: "state", Status: j.statusLocked()})
	return true
}

// setProgress records and publishes a coalesced progress snapshot.
func (j *job) setProgress(p JobProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.progress = &p
	j.publishLocked(Event{Name: "progress", Status: j.statusLocked()})
}

// finishLocked transitions to a terminal state, publishes the terminal
// event, and closes every subscriber channel. The caller holds j.mu and
// has seen that the job is not terminal yet (Server.finishJob).
func (j *job) finishLocked(state JobState, err error) {
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.publishLocked(Event{Name: string(state), Status: j.statusLocked()})
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}
