package setconsensus

import (
	"encoding/json"
	"fmt"

	"setconsensus/internal/check"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/wire"
)

// BitStats is the wire backend's bandwidth accounting (Lemma 6: O(n·log n)
// bits per ordered pair over the whole run).
type BitStats struct {
	// MaxPair is the largest total over any ordered pair of processes.
	MaxPair int `json:"maxPair"`
	// Total is the sum over all ordered pairs.
	Total int `json:"total"`
}

// GraphStats summarizes the knowledge graph an oracle run consulted.
type GraphStats struct {
	Horizon int `json:"horizon"`
	// MaxHiddenCapacity is the largest HC⟨i,horizon⟩ over processes
	// active at the horizon (Definition 2) — the obstruction that delays
	// decisions.
	MaxHiddenCapacity int `json:"maxHiddenCapacity"`
}

// Result is the unified outcome of running one protocol against one
// adversary on any backend. It marshals to JSON for batch pipelines;
// backend-specific extras (bit accounting, graph stats) are present only
// when the backend produces them.
type Result struct {
	// Protocol is the runtime name, e.g. "Optmin[2]"; Ref is the registry
	// name it was resolved from, e.g. "optmin".
	Protocol string `json:"protocol"`
	Ref      string `json:"ref"`
	Backend  string `json:"backend"`
	Params   Params `json:"params"`
	// Adversary renders the input vector and failure pattern.
	Adversary string `json:"adversary"`
	// Decisions[i] is nil if process i never decided (it crashed first,
	// or the protocol failed to decide within the horizon).
	Decisions []*Decision `json:"decisions"`
	// MaxCorrectTime is the latest decision time among correct processes,
	// or −1 if some correct process never decided.
	MaxCorrectTime int `json:"maxCorrectTime"`
	// Bits is set by the Wire backend.
	Bits *BitStats `json:"bits,omitempty"`
	// GraphStats is set by the Oracle backend.
	GraphStats *GraphStats `json:"graphStats,omitempty"`

	adv *model.Adversary
}

// Adv returns the adversary the run was executed against.
func (r *Result) Adv() *Adversary { return r.adv }

// KnowledgeGraph returns a knowledge graph equal to the one an
// Oracle-backend run consulted, rebuilt on demand from the run's
// adversary to the horizon in GraphStats (nil on other backends). Each
// call builds a fresh graph; the engine keeps none past the run.
func (r *Result) KnowledgeGraph() *Graph {
	if r.GraphStats == nil || r.adv == nil {
		return nil
	}
	return knowledge.New(r.adv, r.GraphStats.Horizon)
}

// DecisionTime returns the time at which process i decided, or −1.
func (r *Result) DecisionTime(i int) int {
	if i < 0 || i >= len(r.Decisions) || r.Decisions[i] == nil {
		return -1
	}
	return r.Decisions[i].Time
}

// Verify checks the run against a task specification (Decision /
// Validity / (Uniform) k-Agreement, §2.3).
func (r *Result) Verify(task Task) error {
	return check.VerifyRun(r.simResult(), task)
}

// simResult adapts the unified result to the checker's shape.
func (r *Result) simResult() *sim.Result {
	return &sim.Result{
		ProtocolName: r.Protocol,
		Adv:          r.adv,
		Decisions:    r.Decisions,
	}
}

// String renders the decision table compactly.
func (r *Result) String() string {
	s := fmt.Sprintf("%s/%s:", r.Protocol, r.Backend)
	for i, d := range r.Decisions {
		if d == nil {
			s += fmt.Sprintf(" %d:⊥", i)
		} else {
			s += fmt.Sprintf(" %d:%d@%d", i, d.Value, d.Time)
		}
	}
	return s
}

// MarshalJSON is the default marshaling; it exists so the set of exported
// fields above is the documented wire format.
func (r *Result) MarshalJSON() ([]byte, error) {
	type plain Result // strip methods to avoid recursion
	return json.Marshal((*plain)(r))
}

// detached is the one allocation behind a detached Result: the Result
// and the storage of its backend extras.
type detached struct {
	res  Result
	gs   GraphStats
	bits BitStats
}

// detach builds a Result the caller may keep from buf's request and run
// record, which alias its worker's buffer: the runtime name and params
// the engine resolved (and cached), the backend kind, the decisions
// copied into one fresh slab, the bit counts copied on the Wire
// backend, and the adversary string and the graph stats (nil off the
// Oracle backend) filled in, both taken by the caller once per
// adversary while its graph is built. The copy keeps no graph.
func detach(buf *runBuffer, kind BackendKind, adv string, gs *GraphStats) *Result {
	req, run := &buf.req, &buf.simres
	d := &detached{res: Result{
		Protocol: req.name, Ref: req.ref, Backend: kind.String(), Params: req.params,
		Adversary: adv, MaxCorrectTime: run.MaxCorrectDecisionTime(), adv: req.adv,
	}}
	out := &d.res
	out.Decisions = make([]*Decision, len(run.Decisions))
	slab := make([]Decision, 0, len(run.Decisions))
	for i, dec := range run.Decisions {
		if dec != nil {
			slab = append(slab, *dec)
			out.Decisions[i] = &slab[len(slab)-1]
		}
	}
	if gs != nil {
		d.gs = *gs
		out.GraphStats = &d.gs
	}
	if kind == Wire {
		d.bits = buf.bits
		out.Bits = &d.bits
	}
	return out
}

// graphStats derives the oracle extras from a knowledge graph.
func graphStats(g *knowledge.Graph) GraphStats {
	gs := GraphStats{Horizon: g.Horizon}
	for i := 0; i < g.Adv.N(); i++ {
		if !g.Active(i, g.Horizon) {
			continue
		}
		if hc := g.HiddenCapacity(i, g.Horizon); hc > gs.MaxHiddenCapacity {
			gs.MaxHiddenCapacity = hc
		}
	}
	return gs
}

// bitStatsInto derives the wire extras from the compact runner's
// accounting into dst, so the pooled run path reuses one BitStats.
func bitStatsInto(dst *BitStats, res *wire.Result) {
	*dst = BitStats{MaxPair: res.MaxPairBits()}
	for _, row := range res.BitsSent {
		for _, b := range row {
			dst.Total += b
		}
	}
}
