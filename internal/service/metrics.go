package service

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the counters the server keeps itself; metricsTable
// reads them, with the state the server already holds (its queue, its
// governor), for /v1/stats, expvar and /metrics. runsPerSec is
// maintained by a 1s sampler over runsTotal while the server is
// started.
type metrics struct {
	queued    atomic.Int64 // jobs accepted, cumulative
	running   atomic.Int64 // jobs running now (gauge)
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64

	runsTotal     atomic.Int64 // protocol runs folded across all jobs
	runsPerSec    atomic.Int64 // sampled once per second
	graphsRebuilt atomic.Int64 // harvested per finished job from EngineStats
	graphsRevived atomic.Int64
	graphsPatched atomic.Int64
	runKitHits    atomic.Int64 // run-kit pool hits/misses, per EngineStats
	runKitMisses  atomic.Int64
	chunkHits     atomic.Int64 // window-buffer hits/misses, per EngineStats
	chunkMisses   atomic.Int64

	sseOpened atomic.Int64 // event streams opened, cumulative
	sseBroken atomic.Int64 // event streams that ended before the terminal event
}

// sample updates the runs/s gauge from the runs-total delta since the
// previous sample, elapsed seconds apart.
func (m *metrics) sample(prev int64, elapsed time.Duration) int64 {
	cur := m.runsTotal.Load()
	if secs := elapsed.Seconds(); secs > 0 {
		m.runsPerSec.Store(int64(float64(cur-prev) / secs))
	}
	return cur
}

// metricKind is a metric's Prometheus type: a gauge's value can go
// down, a counter's never does.
type metricKind string

const (
	counter metricKind = "counter"
	gauge   metricKind = "gauge"
)

// metric is one row of the metrics table: a name (rendered with the
// "setconsensusd_" prefix on /metrics), its kind, a one-line help text,
// and how to read its value off a server.
type metric struct {
	name string
	kind metricKind
	help string
	read func(*Server) int64
}

// metricsTable is every metric the server exposes, kept in name order:
// /v1/stats, the expvar "setconsensusd" map and /metrics all range over
// it, so a metric added here shows on all three.
var metricsTable = []metric{
	{"graphs_patched", counter, "Knowledge graphs delta-patched from the previous input assignment, cumulative.",
		func(s *Server) int64 { return s.metrics.graphsPatched.Load() }},
	{"graphs_rebuilt", counter, "Knowledge graphs built from scratch on the arena-recycling path, cumulative.",
		func(s *Server) int64 { return s.metrics.graphsRebuilt.Load() }},
	{"graphs_revived", counter, "Knowledge graphs revived from a same-pattern arena, cumulative.",
		func(s *Server) int64 { return s.metrics.graphsRevived.Load() }},
	{"jobs_cancelled", counter, "Jobs cancelled before completion, cumulative.",
		func(s *Server) int64 { return s.metrics.cancelled.Load() }},
	{"jobs_done", counter, "Jobs finished successfully, cumulative.",
		func(s *Server) int64 { return s.metrics.done.Load() }},
	{"jobs_failed", counter, "Jobs finished in failure, cumulative.",
		func(s *Server) int64 { return s.metrics.failed.Load() }},
	{"jobs_queued", counter, "Jobs accepted for execution, cumulative.",
		func(s *Server) int64 { return s.metrics.queued.Load() }},
	{"jobs_running", gauge, "Jobs executing right now.",
		func(s *Server) int64 { return s.metrics.running.Load() }},
	{"mem_hard_limit_bytes", gauge, "Hard memory ceiling gating admission; 0 means unlimited.",
		func(s *Server) int64 { return s.gov.Stats().HardLimitBytes }},
	{"mem_live_bytes", gauge, "Metered arena/pool bytes live across the server's engines.",
		func(s *Server) int64 { return s.gov.Stats().LiveBytes }},
	{"mem_sheds", counter, "Submissions shed over a memory ceiling, cumulative.",
		func(s *Server) int64 { return s.gov.Stats().Sheds }},
	{"mem_soft_limit_bytes", gauge, "Soft memory ceiling; 0 means unlimited.",
		func(s *Server) int64 { return s.gov.Stats().SoftLimitBytes }},
	{"panics_recovered", counter, "Worker panics recovered into typed job failures, cumulative.",
		func(s *Server) int64 { return s.gov.Stats().PanicsRecovered }},
	{"pool_chunk_hits", counter, "Sweep windows claimed into a worker's window buffer that already fit them, cumulative.",
		func(s *Server) int64 { return s.metrics.chunkHits.Load() }},
	{"pool_chunk_miss", counter, "Sweep windows that grew their worker's window buffer, cumulative.",
		func(s *Server) int64 { return s.metrics.chunkMisses.Load() }},
	{"pool_runkit_hits", counter, "Per-worker run-kit (run buffer, knowledge-graph builder arena and window buffer) pool checkouts served warm, cumulative.",
		func(s *Server) int64 { return s.metrics.runKitHits.Load() }},
	{"pool_runkit_miss", counter, "Per-worker run-kit pool checkouts that allocated fresh, cumulative.",
		func(s *Server) int64 { return s.metrics.runKitMisses.Load() }},
	{"queue_depth", gauge, "Jobs accepted but not yet claimed by a worker.",
		func(s *Server) int64 { return int64(len(s.queue)) }},
	{"runs_per_sec", gauge, "Protocol runs folded per second, sampled every second.",
		func(s *Server) int64 { return s.metrics.runsPerSec.Load() }},
	{"runs_total", counter, "Protocol runs folded across all jobs, cumulative.",
		func(s *Server) int64 { return s.metrics.runsTotal.Load() }},
	{"sse_broken", counter, "Job event streams that ended before delivering the terminal event, cumulative.",
		func(s *Server) int64 { return s.metrics.sseBroken.Load() }},
	{"sse_opened", counter, "Job event streams opened, cumulative.",
		func(s *Server) int64 { return s.metrics.sseOpened.Load() }},
	{"watchdog_cancels", counter, "Stuck jobs cancelled by the progress watchdog, cumulative.",
		func(s *Server) int64 { return s.gov.Stats().WatchdogCancels }},
}

// snapshot reads every metric of the table into the flat map /v1/stats
// and the expvar "setconsensusd" map serve.
func (s *Server) snapshot() map[string]int64 {
	out := make(map[string]int64, len(metricsTable))
	for _, m := range metricsTable {
		out[m.name] = m.read(s)
	}
	return out
}

// expvar publication is process-global and append-only, while tests
// build many servers — so the package publishes one "setconsensusd" Func
// that reads whichever server registered most recently.
var (
	expvarOnce   sync.Once
	activeServer atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	activeServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("setconsensusd", expvar.Func(func() any {
			if s := activeServer.Load(); s != nil {
				return s.snapshot()
			}
			return map[string]int64{}
		}))
	})
}
