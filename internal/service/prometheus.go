package service

import (
	"fmt"
	"io"
	"net/http"
)

// prometheus.go renders the metrics table in the Prometheus text
// exposition format (version 0.0.4), so a scrape target needs nothing
// beyond GET /metrics. Every metric is prefixed "setconsensusd_".

// promContentType is the text exposition content type Prometheus
// scrapers negotiate.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus renders every row of the metrics table, in the
// table's name order — the shape the exposition test pins.
func writePrometheus(w io.Writer, s *Server) {
	for _, m := range metricsTable {
		fmt.Fprintf(w, "# HELP setconsensusd_%s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE setconsensusd_%s %s\n", m.name, m.kind)
		fmt.Fprintf(w, "setconsensusd_%s %d\n", m.name, m.read(s))
	}
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	writePrometheus(w, s)
}
