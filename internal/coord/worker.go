package coord

import (
	"context"
	"fmt"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/chaos"
	"setconsensus/internal/service"
)

// Worker executes one range of the sweep and returns its partial
// Summary. Implementations must be safe for the coordinator to call
// Sweep repeatedly (one range at a time per worker); the two transports
// are EngineWorker (in-process) and RemoteWorker (a setconsensusd
// server reached through service.Client). Sweep's progress callback is
// nil unless the coordinator's Run has a progress consumer; when
// invoked, it carries the worker's in-range snapshot — the coordinator
// aggregates snapshots across workers itself.
type Worker interface {
	Name() string
	Sweep(ctx context.Context, r Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error)
}

// injectWorkerFaults runs the two worker-side injection points shared
// by both transports: a straggler stall before the range (exercising
// lease expiry) and a crash that kills the attempt outright (exercising
// retry and the circuit breaker).
func injectWorkerFaults(ctx context.Context, inj chaos.Injector, name string, r Range) error {
	if fire, d := chaos.Fire(inj, chaos.PointStraggler); fire {
		if err := chaos.Sleep(ctx, d); err != nil {
			return err
		}
	}
	if fire, _ := chaos.Fire(inj, chaos.PointWorkerCrash); fire {
		return fmt.Errorf("chaos: injected crash of worker %s on range %s", name, r)
	}
	return nil
}

// EngineWorker runs ranges on an in-process Engine: each range becomes
// an Engine.SweepSourceProgress over the workload source scoped with
// setconsensus.RangeSource. Give each worker its own Engine (engines
// recycle per-sweep state); the Source may be shared — sources are
// read-only and build fresh iteration state per Seq call.
type EngineWorker struct {
	name   string
	engine *setconsensus.Engine
	refs   []string
	src    setconsensus.Source
	every  time.Duration
	chaos  chaos.Injector
}

// NewEngineWorker builds an in-process worker. every throttles the
// engine's progress feed (≤ 0 means the engine default).
func NewEngineWorker(name string, engine *setconsensus.Engine, refs []string, src setconsensus.Source, every time.Duration) *EngineWorker {
	return &EngineWorker{name: name, engine: engine, refs: append([]string(nil), refs...), src: src, every: every}
}

// WithChaos threads a fault injector into the worker's sweep path and
// returns the worker. Nil (the default) never fires.
func (w *EngineWorker) WithChaos(inj chaos.Injector) *EngineWorker {
	w.chaos = inj
	return w
}

func (w *EngineWorker) Name() string { return w.name }

func (w *EngineWorker) Sweep(ctx context.Context, r Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	if err := injectWorkerFaults(ctx, w.chaos, w.name, r); err != nil {
		return nil, err
	}
	return w.engine.SweepSourceProgress(ctx, w.refs,
		setconsensus.RangeSource(w.src, r.Offset, r.Limit), w.every, progress)
}

// RemoteWorker runs ranges on a setconsensusd server: each range is
// submitted as a range-scoped sweep job (JobRequest.Offset/Limit) and
// awaited over the job's SSE stream. The request template carries the
// workload reference, protocol refs, and engine params; the coordinator
// fills the window per range.
type RemoteWorker struct {
	name   string
	client *service.Client
	req    service.JobRequest
	chaos  chaos.Injector
}

// NewRemoteWorker builds a worker speaking to the server at base (e.g.
// "http://127.0.0.1:8372"). req is the job template — Kind is forced to
// sweep, Offset/Limit are overwritten per range.
func NewRemoteWorker(name, base string, req service.JobRequest) *RemoteWorker {
	req.Kind = service.KindSweep
	return &RemoteWorker{name: name, client: &service.Client{Base: base}, req: req}
}

// WithChaos threads a fault injector into both the worker's own sweep
// path (straggler, crash) and its service.Client (transient HTTP
// errors, SSE disconnects), and returns the worker.
func (w *RemoteWorker) WithChaos(inj chaos.Injector) *RemoteWorker {
	w.chaos = inj
	w.client.Chaos = inj
	return w
}

// Client exposes the worker's underlying service client for transport
// tuning (timeouts, retry budget).
func (w *RemoteWorker) Client() *service.Client { return w.client }

func (w *RemoteWorker) Name() string { return w.name }

func (w *RemoteWorker) Sweep(ctx context.Context, r Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	if err := injectWorkerFaults(ctx, w.chaos, w.name, r); err != nil {
		return nil, err
	}
	req := w.req
	req.Offset, req.Limit = r.Offset, r.Limit
	st, err := w.client.SubmitAndWait(ctx, req, func(p service.JobProgress) {
		if progress != nil {
			progress(setconsensus.SweepProgress{Adversaries: p.Adversaries, Runs: p.Runs, Total: p.Total})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("coord: remote %s: %w", w.name, err)
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("coord: remote %s: job %s ended %s: %s", w.name, st.ID, st.State, st.Error)
	}
	if st.Summary == nil {
		return nil, fmt.Errorf("coord: remote %s: job %s finished without a summary", w.name, st.ID)
	}
	return st.Summary, nil
}
