// Package unbeat implements the computational content of the paper's
// unbeatability results (Theorem 1, Theorem 2):
//
//   - the Lemma 2 construction: from any run r and node ⟨i,m⟩ with hidden
//     capacity c, build the run r′ — indistinguishable to ⟨i,m⟩ — in which
//     the c hidden chains carry c arbitrary values (lemma2.go);
//   - Lemma 1 / Lemma 3 forcing certificates: machine-checked evidence
//     that a high node with hidden capacity ≥ k cannot decide in any
//     protocol dominating Optmin[k] (forced.go);
//   - a bounded protocol-space search: over small models, every decision
//     rule that deviates from Optmin by deciding earlier at up to w views
//     violates the task somewhere (search.go).
package unbeat

import (
	"context"
	"fmt"

	"setconsensus/internal/bitset"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// HiddenRunResult packages the Lemma 2 construction: the run r′, the
// witness matrix (Witnesses[l][b] is the chain-b witness at layer l, the
// i_b^l of Definition 2), and the values carried by the chains.
type HiddenRunResult struct {
	Base      *model.Adversary
	Run       *model.Adversary // r′
	Node      model.Proc       // i
	Time      int              // m
	Values    []model.Value    // v_1..v_c (chain b carries Values[b])
	Witnesses [][]model.Proc   // [layer][chain]
}

// String renders the construction's conclusion in the report convention.
func (h *HiddenRunResult) String() string {
	if h == nil {
		return "<no construction>"
	}
	return fmt.Sprintf("lemma2: r′ indistinguishable at ⟨%d,%d⟩ carrying %d hidden chains %v",
		h.Node, h.Time, len(h.Values), h.Values)
}

// HiddenRun performs the constructive step of Lemma 2: given the knowledge
// graph of a run r, a node ⟨i,m⟩ with hidden capacity ≥ len(values), it
// builds the run r′ in which, for each chain b, the witnesses i_b^0 → …
// → i_b^m form a hidden chain relaying values[b], while ⟨i,m⟩'s view is
// unchanged: r′_i(m) = r_i(m).
//
// Construction (Appendix B, proof of Lemma 2), as failure-pattern edits:
//  1. witness i_b^0 starts with values[b];
//  2. for l < m, witness i_b^l crashes in round l+1 delivering only to
//     i_b^{l+1};
//  3. every other crashing sender's crash-round-ρ delivery to a layer-ρ
//     witness is rewritten to match its delivery to i, so each witness
//     receives at its layer exactly what i receives (plus the chain
//     message); earlier rounds are untouched;
//  4. i and the layer-m witnesses never fail in r′ (the w.l.o.g. of the
//     paper's usage).
func HiddenRun(g *knowledge.Graph, i model.Proc, m int, values []model.Value) (*HiddenRunResult, error) {
	adv := g.Adv
	c := len(values)
	if c == 0 {
		return nil, fmt.Errorf("unbeat: need at least one chain value")
	}
	if !adv.Pattern.Active(i, m) {
		return nil, fmt.Errorf("unbeat: ⟨%d,%d⟩ is not active", i, m)
	}
	if hc := g.HiddenCapacity(i, m); hc < c {
		return nil, fmt.Errorf("unbeat: HC⟨%d,%d⟩ = %d < %d chains", i, m, hc, c)
	}

	// Choose witnesses: the c lowest-numbered hidden processes per layer.
	// For an active observer the hidden sets of distinct layers are
	// disjoint (a crashed process is hidden at exactly one layer), which
	// the construction requires; verify rather than assume.
	witnesses := make([][]model.Proc, m+1)
	used := bitset.New(adv.N())
	for l := 0; l <= m; l++ {
		hidden := g.HiddenSet(i, m, l)
		picked := make([]model.Proc, 0, c)
		hidden.ForEach(func(j int) bool {
			if !used.Contains(j) {
				picked = append(picked, j)
				used.Add(j)
			}
			return len(picked) < c
		})
		if len(picked) < c {
			return nil, fmt.Errorf("unbeat: layer %d has only %d unused hidden nodes, need %d (overlapping hidden layers?)", l, len(picked), c)
		}
		witnesses[l] = picked
	}

	run := adv.Clone()
	isWitnessAt := make(map[model.Proc]int) // proc → its layer
	for l := 0; l <= m; l++ {
		for _, w := range witnesses[l] {
			isWitnessAt[w] = l
		}
	}

	// (1) chain heads carry the prescribed values.
	for b := 0; b < c; b++ {
		run.Inputs[witnesses[0][b]] = values[b]
	}
	// (4) i and layer-m witnesses never fail.
	run.Pattern.RemoveCrash(i)
	for _, w := range witnesses[m] {
		run.Pattern.RemoveCrash(w)
	}
	// (2) chain witnesses at layers < m crash in round l+1, delivering
	// only to their successor.
	for l := 0; l < m; l++ {
		for b := 0; b < c; b++ {
			w := witnesses[l][b]
			run.Pattern.SetCrash(model.Crash{
				Proc:      w,
				Round:     l + 1,
				Delivered: bitset.New(adv.N()).Add(witnesses[l+1][b]),
			})
		}
	}
	// (3) align every other crasher's crash-round deliveries to witnesses
	// with its deliveries to i.
	for _, cr := range run.Pattern.Crashes {
		p := cr.Proc
		if wl, isW := isWitnessAt[p]; isW && wl < m {
			continue // chain crashes are fully prescribed above
		}
		rho := cr.Round
		if rho > m {
			continue // invisible to anyone at or before time m
		}
		d := cr.Delivered.Clone()
		deliversToI := d.Contains(i)
		for _, w := range witnesses[rho] {
			if deliversToI {
				d.Add(w)
			} else {
				d.Remove(w)
			}
		}
		// Deliveries to dead witnesses are unobservable; drop them so the
		// pattern stays canonical.
		for wp, wlayer := range isWitnessAt {
			if wlayer < m && rho > wlayer+1 {
				d.Remove(wp)
			}
		}
		run.Pattern.SetCrash(model.Crash{Proc: p, Round: rho, Delivered: d})
	}

	return &HiddenRunResult{
		Base: adv, Run: run, Node: i, Time: m,
		Values: append([]model.Value(nil), values...), Witnesses: witnesses,
	}, nil
}

// Verify checks every guarantee of Lemma 2 on the constructed run:
//
//	(i)   indistinguishability: r′_i(m) = r_i(m) (view fingerprints);
//	(a)   values[b] ∈ Vals⟨i_b^l, l⟩ for all l, b;
//	(b)   Vals⟨i_b^l, l⟩ \ {values[b]} ⊆ Vals⟨i, l⟩;
//	(c)   ⟨i_b^l, l⟩ has hidden capacity ≥ c−1 in r′, and the other
//	      chains' witnesses are hidden from it.
//
// It returns the knowledge graph of r′ so callers can continue reasoning
// in the constructed run. The per-layer condition loop polls the
// context, so cancelling aborts a deep verification promptly.
func (h *HiddenRunResult) Verify(ctx context.Context, gBase *knowledge.Graph) (*knowledge.Graph, error) {
	m, i, c := h.Time, h.Node, len(h.Values)
	gNew := knowledge.New(h.Run, max(m, gBase.Horizon))

	if got, want := gNew.Fingerprint(i, m), gBase.Fingerprint(i, m); got != want {
		return nil, fmt.Errorf("unbeat: r′ distinguishable at ⟨%d,%d⟩:\n r′: %s\n r:  %s", i, m, got, want)
	}
	for l := 0; l <= m; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for b := 0; b < c; b++ {
			w := h.Witnesses[l][b]
			vals := gNew.Vals(w, l)
			if !vals.Contains(h.Values[b]) {
				return nil, fmt.Errorf("unbeat: (a) fails: value %d ∉ Vals⟨%d,%d⟩ = %s", h.Values[b], w, l, vals)
			}
			rest := vals.Clone().Remove(h.Values[b])
			if !rest.SubsetOf(gNew.Vals(i, l)) {
				return nil, fmt.Errorf("unbeat: (b) fails: Vals⟨%d,%d⟩∖{%d} = %s ⊄ Vals⟨%d,%d⟩ = %s",
					w, l, h.Values[b], rest, i, l, gNew.Vals(i, l))
			}
			if hc := gNew.HiddenCapacity(w, l); hc < c-1 {
				return nil, fmt.Errorf("unbeat: (c) fails: HC⟨%d,%d⟩ = %d < %d", w, l, hc, c-1)
			}
			for b2 := 0; b2 < c; b2++ {
				if b2 == b {
					continue
				}
				for l2 := 0; l2 <= l; l2++ {
					if !gNew.Hidden(w, l, h.Witnesses[l2][b2], l2) {
						return nil, fmt.Errorf("unbeat: (c) fails: ⟨%d,%d⟩ not hidden from ⟨%d,%d⟩",
							h.Witnesses[l2][b2], l2, w, l)
					}
				}
			}
		}
	}
	return gNew, nil
}
