package service

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusExposition pins the exact text shape of GET /metrics on
// a fresh server: every snapshot key present, sorted, each as a
// HELP/TYPE/value triplet with the setconsensusd_ prefix, gauges and
// counters classified, and the exposition content type negotiated.
func TestPrometheusExposition(t *testing.T) {
	srv, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	if got := rec.Header().Get("Content-Type"); got != promContentType {
		t.Fatalf("Content-Type = %q, want %q", got, promContentType)
	}
	want := `# HELP setconsensusd_graphs_patched Knowledge graphs delta-patched from the previous input assignment, cumulative.
# TYPE setconsensusd_graphs_patched counter
setconsensusd_graphs_patched 0
# HELP setconsensusd_graphs_rebuilt Knowledge graphs built from scratch on the arena-recycling path, cumulative.
# TYPE setconsensusd_graphs_rebuilt counter
setconsensusd_graphs_rebuilt 0
# HELP setconsensusd_graphs_revived Knowledge graphs revived from a same-pattern arena, cumulative.
# TYPE setconsensusd_graphs_revived counter
setconsensusd_graphs_revived 0
# HELP setconsensusd_jobs_cancelled Jobs cancelled before completion, cumulative.
# TYPE setconsensusd_jobs_cancelled counter
setconsensusd_jobs_cancelled 0
# HELP setconsensusd_jobs_done Jobs finished successfully, cumulative.
# TYPE setconsensusd_jobs_done counter
setconsensusd_jobs_done 0
# HELP setconsensusd_jobs_failed Jobs finished in failure, cumulative.
# TYPE setconsensusd_jobs_failed counter
setconsensusd_jobs_failed 0
# HELP setconsensusd_jobs_queued Jobs accepted for execution, cumulative.
# TYPE setconsensusd_jobs_queued counter
setconsensusd_jobs_queued 0
# HELP setconsensusd_jobs_running Jobs executing right now.
# TYPE setconsensusd_jobs_running gauge
setconsensusd_jobs_running 0
# HELP setconsensusd_mem_hard_limit_bytes Hard memory ceiling gating admission; 0 means unlimited.
# TYPE setconsensusd_mem_hard_limit_bytes gauge
setconsensusd_mem_hard_limit_bytes 0
# HELP setconsensusd_mem_live_bytes Metered arena/pool bytes live across the server's engines.
# TYPE setconsensusd_mem_live_bytes gauge
setconsensusd_mem_live_bytes 0
# HELP setconsensusd_mem_sheds Submissions shed over a memory ceiling, cumulative.
# TYPE setconsensusd_mem_sheds counter
setconsensusd_mem_sheds 0
# HELP setconsensusd_mem_soft_limit_bytes Soft memory ceiling; 0 means unlimited.
# TYPE setconsensusd_mem_soft_limit_bytes gauge
setconsensusd_mem_soft_limit_bytes 0
# HELP setconsensusd_panics_recovered Worker panics recovered into typed job failures, cumulative.
# TYPE setconsensusd_panics_recovered counter
setconsensusd_panics_recovered 0
# HELP setconsensusd_pool_chunk_hits Sweep chunk pool checkouts served warm, cumulative.
# TYPE setconsensusd_pool_chunk_hits counter
setconsensusd_pool_chunk_hits 0
# HELP setconsensusd_pool_chunk_miss Sweep chunk pool checkouts that allocated fresh, cumulative.
# TYPE setconsensusd_pool_chunk_miss counter
setconsensusd_pool_chunk_miss 0
# HELP setconsensusd_pool_runkit_hits Per-worker run-kit (RunBuffer + builder arena) pool checkouts served warm, cumulative.
# TYPE setconsensusd_pool_runkit_hits counter
setconsensusd_pool_runkit_hits 0
# HELP setconsensusd_pool_runkit_miss Per-worker run-kit pool checkouts that allocated fresh, cumulative.
# TYPE setconsensusd_pool_runkit_miss counter
setconsensusd_pool_runkit_miss 0
# HELP setconsensusd_queue_depth Jobs accepted but not yet claimed by a worker.
# TYPE setconsensusd_queue_depth gauge
setconsensusd_queue_depth 0
# HELP setconsensusd_runs_per_sec Protocol runs folded per second, sampled every second.
# TYPE setconsensusd_runs_per_sec gauge
setconsensusd_runs_per_sec 0
# HELP setconsensusd_runs_total Protocol runs folded across all jobs, cumulative.
# TYPE setconsensusd_runs_total counter
setconsensusd_runs_total 0
# HELP setconsensusd_sse_broken Job event streams that ended before delivering the terminal event, cumulative.
# TYPE setconsensusd_sse_broken counter
setconsensusd_sse_broken 0
# HELP setconsensusd_sse_opened Job event streams opened, cumulative.
# TYPE setconsensusd_sse_opened counter
setconsensusd_sse_opened 0
# HELP setconsensusd_watchdog_cancels Stuck jobs cancelled by the progress watchdog, cumulative.
# TYPE setconsensusd_watchdog_cancels counter
setconsensusd_watchdog_cancels 0
`
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusReflectsCounters checks that mutated counters show up
// in the rendered values — the exposition reads the live snapshot, not
// a copy at mount time.
func TestPrometheusReflectsCounters(t *testing.T) {
	srv, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	srv.metrics.queued.Add(3)
	srv.metrics.runsTotal.Add(12345)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, line := range []string{
		"setconsensusd_jobs_queued 3\n",
		"setconsensusd_runs_total 12345\n",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("exposition missing %q:\n%s", line, body)
		}
	}
}
