package service

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"setconsensus/internal/govern"
)

// metrics is the server's observability surface: plain atomics sampled
// by /v1/stats (per server) and expvar (process-global), so capacity
// planning is measurement. runsPerSec is maintained by a 1s sampler
// over runsTotal while the server is started.
type metrics struct {
	queued     atomic.Int64 // jobs accepted, cumulative
	running    atomic.Int64 // jobs running now (gauge)
	done       atomic.Int64
	failed     atomic.Int64
	cancelled  atomic.Int64
	queueDepth atomic.Int64 // jobs queued but not yet claimed (gauge)

	runsTotal     atomic.Int64 // protocol runs folded across all jobs
	runsPerSec    atomic.Int64 // sampled once per second
	graphsRebuilt atomic.Int64 // harvested per finished job from EngineStats
	graphsRevived atomic.Int64
	graphsPatched atomic.Int64
	runKitHits    atomic.Int64 // run-buffer kit pool hits/misses, per EngineStats
	runKitMisses  atomic.Int64
	chunkHits     atomic.Int64 // sweep chunk pool hits/misses, per EngineStats
	chunkMisses   atomic.Int64

	sseOpened atomic.Int64 // event streams opened, cumulative
	sseBroken atomic.Int64 // event streams that ended before the terminal event
}

// snapshot renders every counter for JSON and expvar consumers.
func (m *metrics) snapshot() map[string]int64 {
	return map[string]int64{
		"jobs_queued":      m.queued.Load(),
		"jobs_running":     m.running.Load(),
		"jobs_done":        m.done.Load(),
		"jobs_failed":      m.failed.Load(),
		"jobs_cancelled":   m.cancelled.Load(),
		"queue_depth":      m.queueDepth.Load(),
		"runs_total":       m.runsTotal.Load(),
		"runs_per_sec":     m.runsPerSec.Load(),
		"graphs_rebuilt":   m.graphsRebuilt.Load(),
		"graphs_revived":   m.graphsRevived.Load(),
		"graphs_patched":   m.graphsPatched.Load(),
		"pool_runkit_hits": m.runKitHits.Load(),
		"pool_runkit_miss": m.runKitMisses.Load(),
		"pool_chunk_hits":  m.chunkHits.Load(),
		"pool_chunk_miss":  m.chunkMisses.Load(),
		"sse_opened":       m.sseOpened.Load(),
		"sse_broken":       m.sseBroken.Load(),
	}
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

// mergeSnapshot joins the job counters with the governor's gauges into
// the single flat map served by /v1/stats, /metrics, and expvar.
func mergeSnapshot(m *metrics, g *govern.Governor) map[string]int64 {
	out := m.snapshot()
	gs := g.Stats()
	out["mem_live_bytes"] = gs.LiveBytes
	out["mem_soft_limit_bytes"] = gs.SoftLimitBytes
	out["mem_hard_limit_bytes"] = gs.HardLimitBytes
	out["mem_sheds"] = gs.Sheds
	out["panics_recovered"] = gs.PanicsRecovered
	out["watchdog_cancels"] = gs.WatchdogCancels
	return out
}

// serverVitals is the pair published through expvar: the most recently
// registered server's counters and its governor.
type serverVitals struct {
	m   *metrics
	gov *govern.Governor
}

// expvar publication is process-global and append-only, while tests
// build many servers — so the package publishes one "setconsensusd" Func
// that reads whichever server registered most recently.
var (
	expvarOnce   sync.Once
	activeServer atomic.Pointer[serverVitals]
)

func publishExpvar(m *metrics, g *govern.Governor) {
	activeServer.Store(&serverVitals{m: m, gov: g})
	expvarOnce.Do(func() {
		expvar.Publish("setconsensusd", expvar.Func(func() any {
			if v := activeServer.Load(); v != nil {
				return mergeSnapshot(v.m, v.gov)
			}
			return map[string]int64{}
		}))
	})
}
