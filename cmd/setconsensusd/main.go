// Command setconsensusd is the long-running job service over the Engine:
// it accepts sweep and analysis jobs over HTTP/JSON, runs them on a
// bounded queue with per-job deadlines and a configurable worker pool,
// streams incremental progress snapshots over SSE, and serves finished
// Summary/AnalysisReport JSON from a bounded in-memory result store.
//
// Endpoints (see the README's Service section for payload shapes):
//
//	POST   /v1/jobs             submit {kind, refs, workload|analysis, params}
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status + result when finished
//	GET    /v1/jobs/{id}/events SSE progress stream (terminal event closes it)
//	DELETE /v1/jobs/{id}        cancel an active job / remove a finished one
//	GET    /v1/stats            service counters (queue depth, runs/s, ...)
//	GET    /metrics             the same counters in Prometheus text exposition
//	GET    /healthz             liveness
//	GET    /readyz              readiness: 503 while draining or shedding over -memlimit-soft
//	GET    /debug/vars          expvar (includes the "setconsensusd" map)
//	GET    /debug/pprof/        pprof profiles
//
// Sweep jobs may carry an offset window ({"offset": O, "limit": L}) to
// run only the range [O, O+L) of the workload's enumeration order —
// the work unit `setconsensus -coordinate -join` fans out across
// servers. Range-scoped jobs are admitted against -max-space by their
// window, not the full space, so a fleet can collectively sweep a
// space far beyond any single server's per-job budget. Every job is
// admitted on an exact count: a workload's, and for a search analysis
// that of the space it compiles.
//
// Every budget is a flag: worker count, queue depth, per-job deadline,
// max adversary space per job, retained results. SIGINT/SIGTERM drain
// gracefully — submissions are rejected immediately, queued jobs are
// cancelled, running jobs get -drain-grace to finish before their
// contexts are cancelled.
//
// Example:
//
//	setconsensusd -addr :8372 -workers 2 -deadline 10m
//	curl -s localhost:8372/v1/jobs -d '{"kind":"sweep","refs":["optmin"],"workload":"space:n=4,t=2,r=2,v=0..1"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"setconsensus/internal/chaos"
	"setconsensus/internal/govern"
	"setconsensus/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

func run() error {
	def := service.Default()
	addr := flag.String("addr", def.Addr, "listen address")
	workers := flag.Int("workers", def.Workers, "concurrent jobs")
	queue := flag.Int("queue", def.QueueDepth, "queued-job bound")
	maxSpace := flag.Int("max-space", def.MaxSpaceSize, "per-job adversary budget: a job whose workload or search space counts more adversaries is rejected")
	deadline := flag.Duration("deadline", def.JobDeadline, "hard per-job deadline")
	results := flag.Int("results", def.ResultBound, "retained finished jobs")
	parallelism := flag.Int("parallelism", def.EngineParallelism, "per-job engine worker-pool size")
	progressEvery := flag.Duration("progress-interval", def.ProgressInterval, "progress snapshot period of sweep jobs (analysis jobs use the engine's 100ms)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long running jobs may finish after SIGTERM")
	memLimit := flag.String("memlimit", "", "hard memory ceiling, e.g. 2GiB: admissions over it are rejected 429, and the Go runtime memory limit (GOMEMLIMIT) is set to match; empty = unlimited")
	memSoft := flag.String("memlimit-soft", "", "soft memory ceiling, e.g. 1500MiB: over it the server stops recycling pooled buffers, sheds submissions 429, and flips /readyz to 503; empty = unlimited")
	progressDeadline := flag.Duration("progress-deadline", 0, "stuck-job watchdog: cancel a running job whose progress has not advanced within this duration (0 = off)")
	chaosSpec := flag.String("chaos", "", "fault-injection spec, e.g. \"panic#1\" (panic inside the first job's worker); test/smoke surface")
	flag.Parse()

	hardMem, err := govern.ParseBytes(*memLimit)
	if err != nil {
		return fmt.Errorf("setconsensusd: -memlimit: %w", err)
	}
	softMem, err := govern.ParseBytes(*memSoft)
	if err != nil {
		return fmt.Errorf("setconsensusd: -memlimit-soft: %w", err)
	}
	var injector chaos.Injector
	if *chaosSpec != "" {
		inj, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		injector = inj
	}

	p := service.Params{
		Addr:              *addr,
		Workers:           *workers,
		QueueDepth:        *queue,
		MaxSpaceSize:      *maxSpace,
		JobDeadline:       *deadline,
		ResultBound:       *results,
		EngineParallelism: *parallelism,
		ProgressInterval:  *progressEvery,
		SoftMemBytes:      softMem,
		HardMemBytes:      hardMem,
		ProgressDeadline:  *progressDeadline,
		Chaos:             injector,
	}
	srv, err := service.New(p)
	if err != nil {
		return err
	}
	if hardMem > 0 {
		// The admission ceiling meters arena/pool bytes; the runtime
		// limit is the GC-level backstop covering everything else the
		// process allocates. Same number, two enforcement layers.
		debug.SetMemoryLimit(hardMem)
	}
	srv.Start()

	hs := &http.Server{Addr: p.Addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("setconsensusd: listening on %s (workers=%d queue=%d deadline=%v max-space=%d)",
			p.Addr, p.Workers, p.QueueDepth, p.JobDeadline, p.MaxSpaceSize)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("setconsensusd: draining (grace %v)", *drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		log.Printf("setconsensusd: drain grace expired; running jobs cancelled (%v)", err)
	}
	// Close the listener after the drain so in-flight SSE streams see
	// their terminal events.
	httpGrace, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(httpGrace); err != nil {
		return fmt.Errorf("setconsensusd: http shutdown: %w", err)
	}
	log.Printf("setconsensusd: drained")
	return nil
}
