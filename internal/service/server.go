package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"setconsensus/internal/govern"
)

// ErrQueueFull rejects a submission when the bounded job queue is at
// QueueDepth; clients see HTTP 429 with Retry-After and retry with
// backoff — the saturation is transient, unlike the terminal 503 of
// ErrClosed.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed rejects submissions during and after shutdown.
var ErrClosed = errors.New("service: server shutting down")

// Server is the job service: a bounded queue of sweep/analysis jobs, a
// worker pool executing them on per-job Engines, a bounded result
// store, and the HTTP surface (REST + SSE + expvar/pprof) over all of
// it. Construct with New, mount Handler, call Start, and Shutdown to
// drain.
type Server struct {
	params  Params
	store   *store
	metrics metrics
	gov     *govern.Governor // always non-nil; zero ceilings = unlimited
	mux     *http.ServeMux

	queue chan *job

	mu      sync.Mutex
	closed  bool
	started bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup // job workers: exit when the queue closes
	samplerWG  sync.WaitGroup // runs/s sampler: exits on baseCancel
}

// New validates p and builds a stopped server; call Start to spin the
// worker pool.
func New(p Params) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		params:     p,
		store:      newStore(p.ResultBound),
		gov:        govern.New(p.SoftMemBytes, p.HardMemBytes),
		queue:      make(chan *job, p.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.routes()
	publishExpvar(s)
	return s, nil
}

// Governor exposes the server's resource governor, e.g. for tests and
// embedded observers.
func (s *Server) Governor() *govern.Governor { return s.gov }

// Params returns the server's validated configuration.
func (s *Server) Params() Params { return s.params }

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start spins the worker pool and the runs/s sampler. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	for w := 0; w < s.params.Workers; w++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for j := range s.queue {
				s.run(s.baseCtx, j) // a job cancelled while queued is skipped
			}
		}()
	}
	s.samplerWG.Add(1)
	go func() {
		defer s.samplerWG.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		prev := s.metrics.runsTotal.Load()
		last := time.Now()
		for {
			select {
			case <-s.baseCtx.Done():
				return
			case now := <-t.C:
				prev = s.metrics.sample(prev, now.Sub(last))
				last = now
			}
		}
	}()
}

// Shutdown drains the server: submissions are rejected immediately,
// queued-but-unclaimed jobs are cancelled, and running jobs get until
// ctx's deadline to finish before their contexts are cancelled. Returns
// nil on a clean drain, ctx.Err() when the grace expired.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Cancel everything still waiting in the queue, then close it so
	// workers exit once their current job finishes.
	for {
		select {
		case j := <-s.queue:
			s.finishJob(j, StateCancelled, ErrCancelled)
			continue
		default:
		}
		break
	}
	close(s.queue)
	started := s.started
	s.mu.Unlock()

	if !started {
		s.baseCancel()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel the sampler — and, when the grace expired, every running
	// job — then wait for the pool to unwind.
	s.baseCancel()
	<-done
	s.samplerWG.Wait()
	return err
}

// routes mounts the HTTP surface: the v1 job API, health, per-server
// stats, and the debug endpoints (expvar, pprof) capacity planning
// reads.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
}

// Submit admits, stores, and enqueues a job, returning its initial
// status. It is the Go-level submission path behind POST /v1/jobs.
// Memory governance gates admission first: over the hard ceiling the
// typed govern.ErrMemoryBudget rejects, over the soft ceiling
// ErrShedding does — both map to HTTP 429 with Retry-After, since the
// account drains as running jobs finish.
func (s *Server) Submit(req JobRequest) (*JobStatus, error) {
	if err := s.gov.Admit(0); err != nil {
		s.gov.NoteShed()
		return nil, err
	}
	if s.gov.Shedding() {
		s.gov.NoteShed()
		return nil, fmt.Errorf("%w (%d live bytes)", ErrShedding, s.gov.Live())
	}
	if _, err := s.admit(&req); err != nil {
		return nil, err
	}
	j := &job{req: req, state: StateQueued, created: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.store.add(j)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.store.remove(j.id)
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.params.QueueDepth)
	}
	s.mu.Unlock()
	s.metrics.queued.Add(1)
	return j.status(), nil
}

// Cancel cancels an active job or removes a terminal one, returning the
// job's status after the action (nil when the id is unknown). The
// Go-level path behind DELETE /v1/jobs/{id}.
func (s *Server) Cancel(id string) *JobStatus {
	j, ok := s.store.get(id)
	if !ok {
		return nil
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch {
	case state == StateQueued:
		// Not yet claimed: finish it here; the claiming worker skips
		// terminal jobs.
		s.finishJob(j, StateCancelled, ErrCancelled)
	case state == StateRunning && cancel != nil:
		cancel(ErrCancelled)
	case state.Terminal():
		s.store.remove(id)
	}
	return j.status()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, fmt.Errorf("service: bad job payload: %w", err), http.StatusBadRequest)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		code := submitStatus(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			// Saturation and shedding are transient: tell well-behaved
			// clients when to come back instead of letting them hammer.
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, err, code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, st)
}

// submitStatus maps a submission error to its HTTP status: overload
// conditions (full queue, shedding, hard memory ceiling) are 429 —
// transient, retry later; only shutdown is 503 — this server is going
// away.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShedding),
		errors.Is(err, govern.ErrMemoryBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrSpaceBudget):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// IsOverload reports whether err is a transient too-busy rejection — a
// full queue, a shedding/over-ceiling server, or their HTTP renderings
// (429, 503) seen through the Client. Coordinators back off and retry
// on these instead of charging the worker's circuit breaker: a governed
// fleet sheds, it does not quarantine healthy-but-busy workers.
func IsOverload(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShedding) ||
		errors.Is(err, govern.ErrMemoryBudget) {
		return true
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable
	}
	return false
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"jobs": s.store.list()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("service: no such job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	writeJSON(w, j.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	st := s.Cancel(r.PathValue("id"))
	if st == nil {
		httpError(w, fmt.Errorf("service: no such job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, fmt.Errorf("service: no such job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	ch := j.subscribe()
	s.metrics.sseOpened.Add(1)
	if !serveSSE(w, r, ch) {
		// Client went away (or the write failed) before the terminal
		// event: a broken stream the client is expected to reconnect.
		s.metrics.sseBroken.Add(1)
		j.unsubscribe(ch)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.snapshot())
}

// handleReady is the load-balancer readiness probe, distinct from the
// liveness /healthz (which stays 200 as long as the process serves):
// 503 while draining or shedding over the soft memory ceiling, 200
// otherwise. Taking a shedding server out of rotation lets its live
// account drain instead of bouncing 429s at clients.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	switch {
	case closed:
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.gov.Shedding():
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("shedding (%d live bytes over soft ceiling)", s.gov.Live()),
			http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, err error, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
