package service

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// prometheus.go renders the server's counters — the same snapshot the
// expvar "setconsensusd" map publishes — in the Prometheus text
// exposition format (version 0.0.4), so a scrape target needs nothing
// beyond GET /metrics. Every metric is prefixed "setconsensusd_"; the
// point-in-time values (running jobs, queue depth, runs/s) are gauges,
// everything else a monotone counter.

// promContentType is the text exposition content type Prometheus
// scrapers negotiate.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promGauges marks the snapshot keys whose values can go down; all
// other keys are counters.
var promGauges = map[string]bool{
	"jobs_running":         true,
	"queue_depth":          true,
	"runs_per_sec":         true,
	"mem_live_bytes":       true,
	"mem_soft_limit_bytes": true,
	"mem_hard_limit_bytes": true,
}

// promHelp is the one-line HELP text per snapshot key. Keys without an
// entry still render (with a generic HELP line), so a new counter can
// never silently vanish from the scrape surface.
var promHelp = map[string]string{
	"jobs_queued":      "Jobs accepted for execution, cumulative.",
	"jobs_running":     "Jobs executing right now.",
	"jobs_done":        "Jobs finished successfully, cumulative.",
	"jobs_failed":      "Jobs finished in failure, cumulative.",
	"jobs_cancelled":   "Jobs cancelled before completion, cumulative.",
	"queue_depth":      "Jobs accepted but not yet claimed by a worker.",
	"runs_total":       "Protocol runs folded across all jobs, cumulative.",
	"runs_per_sec":     "Protocol runs folded per second, sampled every second.",
	"graphs_rebuilt":   "Knowledge graphs built from scratch on the arena-recycling path, cumulative.",
	"graphs_revived":   "Knowledge graphs revived from a same-pattern arena, cumulative.",
	"graphs_patched":   "Knowledge graphs delta-patched from the previous input assignment, cumulative.",
	"pool_runkit_hits": "Per-worker run-kit (run buffer + knowledge-graph builder arena) pool checkouts served warm, cumulative.",
	"pool_runkit_miss": "Per-worker run-kit pool checkouts that allocated fresh, cumulative.",
	"pool_chunk_hits":  "Sweep chunk pool checkouts served warm, cumulative.",
	"pool_chunk_miss":  "Sweep chunk pool checkouts that allocated fresh, cumulative.",
	"sse_opened":       "Job event streams opened, cumulative.",
	"sse_broken":       "Job event streams that ended before delivering the terminal event, cumulative.",

	"mem_live_bytes":       "Metered arena/pool bytes live across the server's engines.",
	"mem_soft_limit_bytes": "Soft memory ceiling; 0 means unlimited.",
	"mem_hard_limit_bytes": "Hard memory ceiling gating admission; 0 means unlimited.",
	"mem_sheds":            "Submissions shed over a memory ceiling, cumulative.",
	"panics_recovered":     "Worker panics recovered into typed job failures, cumulative.",
	"watchdog_cancels":     "Stuck jobs cancelled by the progress watchdog, cumulative.",
}

// writePrometheus renders one snapshot in deterministic (sorted) key
// order — the shape the exposition test pins.
func writePrometheus(w io.Writer, snap map[string]int64) {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		help, ok := promHelp[k]
		if !ok {
			help = "setconsensusd counter " + k + "."
		}
		kind := "counter"
		if promGauges[k] {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# HELP setconsensusd_%s %s\n", k, help)
		fmt.Fprintf(w, "# TYPE setconsensusd_%s %s\n", k, kind)
		fmt.Fprintf(w, "setconsensusd_%s %d\n", k, snap[k])
	}
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	writePrometheus(w, s.snapshot())
}
