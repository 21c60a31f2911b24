package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// newIdleServer builds a server whose worker pool never starts, so a
// test can take queued jobs off the queue and drive them itself.
func newIdleServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// finish is a job's terminal transition without a server's store or
// counters, for the tests that drive a store directly.
func (j *job) finish(state JobState, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.finishLocked(state, err)
	}
}

// quickSweep is a job that runs in milliseconds.
var quickSweep = JobRequest{Kind: KindSweep, Refs: []string{"optmin"}, Workload: "collapse:k=1,r=2"}

// requireFinishedOnce asserts the store lists id among its finished jobs
// exactly once.
func requireFinishedOnce(t *testing.T, s *Server, id string) {
	t.Helper()
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	n := 0
	for _, f := range s.store.finished {
		if f == id {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("store lists %s as finished %d times, want once", id, n)
	}
}

// TestCancelAfterDequeueStaysCancelled pins that a terminal job stays
// terminal: a queued job that Cancel finishes after a worker has taken
// it off the queue is not run. It ends cancelled, counted once, with one
// entry in the store's finish order — not run to done and counted both
// ways, with its id twice in the eviction order.
func TestCancelAfterDequeueStaysCancelled(t *testing.T) {
	s := newIdleServer(t)
	st, err := s.Submit(quickSweep)
	if err != nil {
		t.Fatal(err)
	}
	j := <-s.queue
	if j.id != st.ID {
		t.Fatalf("dequeued %s, submitted %s", j.id, st.ID)
	}
	if got := s.Cancel(j.id); got == nil || got.State != StateCancelled {
		t.Fatalf("Cancel of a queued job = %+v, want cancelled", got)
	}
	s.run(s.baseCtx, j)
	if got := j.status(); got.State != StateCancelled || got.Started != nil {
		t.Fatalf("job ended %s (started %v), want cancelled and never started", got.State, got.Started)
	}
	if c, d := s.metrics.cancelled.Load(), s.metrics.done.Load(); c != 1 || d != 0 {
		t.Fatalf("jobs_cancelled = %d, jobs_done = %d; want 1 and 0", c, d)
	}
	requireFinishedOnce(t, s, j.id)
}

// TestFinishJobRecordsBeforeAnnouncing pins the order of a terminal
// transition: the store records the job (and evicts past its bound)
// before the terminal event goes out, so a client that saw the event
// never reads a store that has not caught up. While the test holds the
// store's lock, finishJob must publish nothing.
func TestFinishJobRecordsBeforeAnnouncing(t *testing.T) {
	s := newIdleServer(t)
	st, err := s.Submit(quickSweep)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.store.get(st.ID)
	if !ok {
		t.Fatalf("submitted job %s not in the store", st.ID)
	}
	events := j.subscribe()
	if ev := <-events; ev.Name != "state" {
		t.Fatalf("first event %q, want the state snapshot", ev.Name)
	}

	s.store.mu.Lock()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s.finishJob(j, StateCancelled, ErrCancelled)
	}()
	select {
	case ev := <-events:
		s.store.mu.Unlock()
		t.Fatalf("event %q published before the store recorded the job", ev.Name)
	case <-time.After(50 * time.Millisecond):
	}
	s.store.mu.Unlock()
	<-finished

	if ev, ok := <-events; !ok || ev.Name != string(StateCancelled) {
		t.Fatalf("terminal event = %q (open %v), want cancelled", ev.Name, ok)
	}
	if _, open := <-events; open {
		t.Fatal("event stream still open after the terminal event")
	}
	if c := s.metrics.cancelled.Load(); c != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", c)
	}
	requireFinishedOnce(t, s, j.id)
}

// TestCancelRacingStartCancelsContext pins the race between Cancel and a
// worker starting the job: Cancel reads the job's state under its lock,
// drops the lock and only then acts, so a worker may start the job in
// between. The test forces that interleaving — it reads StateQueued as
// Cancel does, lets setRunning install the run's cancel func, then takes
// Cancel's path for a queued job — and the job must end cancelled with
// its context cancelled too, not reported cancelled while it runs on to
// completion on a worker.
func TestCancelRacingStartCancelsContext(t *testing.T) {
	s := newIdleServer(t)
	st, err := s.Submit(quickSweep)
	if err != nil {
		t.Fatal(err)
	}
	j := <-s.queue
	if j.id != st.ID {
		t.Fatalf("dequeued %s, submitted %s", j.id, st.ID)
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateQueued {
		t.Fatalf("job is %s before its start, want queued", state)
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	if !j.setRunning(cancel) {
		t.Fatal("setRunning refused a queued job")
	}
	s.finishJob(j, StateCancelled, ErrCancelled) // Cancel's queued-job branch
	if got := j.status(); got.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", got.State)
	}
	if ctx.Err() == nil {
		t.Fatal("the job is reported cancelled, but its context is live: its run goes on")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrCancelled) {
		t.Fatalf("context cause %v, want ErrCancelled", cause)
	}
	requireFinishedOnce(t, s, j.id)
}
