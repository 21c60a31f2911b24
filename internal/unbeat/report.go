package unbeat

import (
	"fmt"
	"strings"

	"setconsensus/internal/model"
)

// This file holds the typed report vocabulary of the analysis pipeline.
// Reports are data, not prose: a Witness carries the interned view ids,
// decision values, and the fingerprint of the adversary on which the
// deviation strictly wins, and every report type renders itself through
// an explicit String method. The root package aliases these types so
// Engine.Analyze, the CLIs, and internal/experiments all speak the same
// schema without an import cycle (the same arrangement internal/agg uses
// for sweep summaries).

// Deviation is one early-decision override of a candidate rule: at the
// interned view View, decide Value.
type Deviation struct {
	View  int         `json:"view"`
	Value model.Value `json:"value"`
}

// Witness is a dominating deviation found by the search: the deviation
// set (one or two entries, by search width) plus the identity of the run
// on which it strictly beats the base protocol.
type Witness struct {
	// Deviations lists the candidate's view overrides in enumeration
	// order.
	Deviations []Deviation `json:"deviations"`
	// AdvFingerprint is the hex-rendered canonical fingerprint of the
	// first enumerated adversary on which the candidate decides strictly
	// earlier than the base protocol — an opaque identity key, stable
	// across runs of the same space.
	AdvFingerprint string `json:"advFingerprint"`
	// Adversary is the display rendering of that adversary.
	Adversary string `json:"adversary"`
}

// String renders the witness compactly.
func (w *Witness) String() string {
	if w == nil {
		return "<no witness>"
	}
	var b strings.Builder
	for i, d := range w.Deviations {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "decide %d at view #%d", d.Value, d.View)
	}
	if w.Adversary != "" {
		fmt.Fprintf(&b, " (strict win on %s)", w.Adversary)
	}
	return b.String()
}

// Progress is one streamed snapshot of a running analysis, emitted by
// Engine.AnalyzeStream the way SweepSourceStream emits Results: Stage
// names the pipeline stage ("compile", "width-1", "width-2", "certify"),
// Done counts processed units of that stage, and Total is the stage size
// (for the compile, the space's canonical count).
type Progress struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// AnalysisReport is the structured outcome of one analysis family run —
// the unified schema behind Engine.Analyze. Exactly one of the payload
// sections is populated: Search for the deviation-search families,
// the certificate counters for "lemma2" and "forced".
type AnalysisReport struct {
	// Family is the registry name the analysis was resolved from, e.g.
	// "search:optmin".
	Family string `json:"family"`
	// Workload labels the adversary space or family the analysis ran
	// over.
	Workload string `json:"workload"`
	// N, T, K are the model parameters of the run.
	N int `json:"n"`
	T int `json:"t"`
	K int `json:"k"`

	// Search is the deviation-search outcome (search:* families).
	Search *SearchReport `json:"search,omitempty"`

	// Nodes is the number of graph nodes examined by a certificate
	// family; Certified of them carried a complete certificate.
	Nodes     int `json:"nodes,omitempty"`
	Certified int `json:"certified,omitempty"`
	// Orders totals the change-run orderings validated by "forced"
	// (the k! per-certificate walks of the Lemma 1 proof).
	Orders int `json:"orders,omitempty"`
}

// OK reports whether the analysis upheld the paper's claim: no beating
// deviation found, and every examined node certified.
func (r *AnalysisReport) OK() bool {
	if r.Search != nil && r.Search.Beaten {
		return false
	}
	return r.Certified == r.Nodes
}

// String renders the report's headline.
func (r *AnalysisReport) String() string {
	if r.Search != nil {
		verdict := "unbeaten"
		if r.Search.Beaten {
			verdict = "BEATEN: " + r.Search.Witness.String()
		}
		return fmt.Sprintf("%s over %s: %d runs, %d deviation points, %d candidates — %s",
			r.Family, r.Workload, r.Search.Runs, r.Search.Views, r.Search.Candidates, verdict)
	}
	return fmt.Sprintf("%s over %s: %d/%d nodes certified", r.Family, r.Workload, r.Certified, r.Nodes)
}

// advFingerprintHex renders an adversary's canonical binary fingerprint
// as hex for report fields (the raw bytes are an opaque map key, not
// printable).
func advFingerprintHex(adv *model.Adversary) string {
	return fmt.Sprintf("%x", adv.Fingerprint())
}
