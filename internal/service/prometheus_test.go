package service

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
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
# HELP setconsensusd_pool_chunk_hits Sweep windows claimed into a worker's window buffer that already fit them, cumulative.
# TYPE setconsensusd_pool_chunk_hits counter
setconsensusd_pool_chunk_hits 0
# HELP setconsensusd_pool_chunk_miss Sweep windows that grew their worker's window buffer, cumulative.
# TYPE setconsensusd_pool_chunk_miss counter
setconsensusd_pool_chunk_miss 0
# HELP setconsensusd_pool_runkit_hits Per-worker run-kit (run buffer, knowledge-graph builder arena and window buffer) pool checkouts served warm, cumulative.
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

// TestMetricsSurfacesAgree runs a sweep job and an analysis job, drains
// the server so no counter moves (the runs/s sampler included), and
// reads /v1/stats, the expvar "setconsensusd" map and /metrics: all
// three hold exactly the metrics table's names, with the same values.
func TestMetricsSurfacesAgree(t *testing.T) {
	for i := 1; i < len(metricsTable); i++ {
		if metricsTable[i-1].name >= metricsTable[i].name {
			t.Errorf("metricsTable out of name order at %q", metricsTable[i].name)
		}
	}
	s, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, req := range []JobRequest{
		{Kind: KindSweep, Refs: []string{"optmin", "upmin"}, Workload: "space:n=3,t=1,r=2,v=0..1"},
		{Kind: KindAnalysis, Analysis: "search:optmin:n=3,t=2,r=2,width=2"},
	} {
		if st, err := c.SubmitAndWait(ctx, req, nil); err != nil || st.State != StateDone {
			t.Fatalf("%s job: %v, %v", req.Kind, st, err)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var stats map[string]int64
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Setconsensusd map[string]int64 `json:"setconsensusd"`
	}
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatal(err)
	}
	prom := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSuffix(string(get("/metrics")), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(strings.TrimPrefix(line, "setconsensusd_"), " ")
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		prom[name] = v
	}

	if len(stats) != len(metricsTable) {
		t.Errorf("/v1/stats holds %d metrics, the table %d", len(stats), len(metricsTable))
	}
	for _, m := range metricsTable {
		if _, ok := stats[m.name]; !ok {
			t.Errorf("/v1/stats misses %q", m.name)
		}
	}
	if !maps.Equal(vars.Setconsensusd, stats) {
		t.Errorf("expvar map %v, /v1/stats %v", vars.Setconsensusd, stats)
	}
	if !maps.Equal(prom, stats) {
		t.Errorf("/metrics %v, /v1/stats %v", prom, stats)
	}
	if stats["jobs_done"] != 2 || stats["runs_total"] <= 776 || stats["graphs_rebuilt"] == 0 {
		t.Errorf("counters did not move with the two jobs: %v", stats)
	}
}

// TestRunsTotalCountsProtocolRuns pins runs_total to the protocol runs
// a job folds. A search adds its compile stage's runs — its report's
// 776 — and not the candidates and pruned pairs it tests after; a
// certificate family runs no protocol and adds nothing.
func TestRunsTotalCountsProtocolRuns(t *testing.T) {
	s, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, step := range []struct {
		ref  string
		runs int64
	}{
		{"search:optmin:n=3,t=2,r=2,width=2", 776},
		{"forced:k=2", 0},
	} {
		before := s.metrics.runsTotal.Load()
		st, err := c.SubmitAndWait(ctx, JobRequest{Kind: KindAnalysis, Analysis: step.ref}, nil)
		if err != nil || st.State != StateDone {
			t.Fatalf("%s: %v, %v", step.ref, st, err)
		}
		if got := s.metrics.runsTotal.Load() - before; got != step.runs {
			t.Errorf("%s moved runs_total by %d, want %d", step.ref, got, step.runs)
		}
		if st.Analysis.Search != nil && int64(st.Analysis.Search.Runs) != step.runs {
			t.Errorf("%s: report has %d runs, want %d", step.ref, st.Analysis.Search.Runs, step.runs)
		}
	}
}
