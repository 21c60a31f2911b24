// Package core implements the paper's protocols: Optmin[k], the unbeatable
// protocol for nonuniform k-set consensus (§4), and u-Pmin[k], the uniform
// k-set consensus protocol that strictly dominates all prior early-deciding
// solutions (§5), together with their k=1 specializations Opt0 and u-Opt0
// from the authors' earlier unbeatable-consensus paper (§3).
//
// Both protocols are stated exactly as in the paper, as decision rules of
// a full-information protocol over the knowledge substrate:
//
//	Optmin[k]  (undecided i at time m):
//	    if i is low or HC⟨i,m⟩ < k then decide(Min⟨i,m⟩)
//
//	u-Pmin[k]  (undecided i at time m):
//	    if (i is low or HC⟨i,m⟩ < k) and i knows Min⟨i,m⟩ will persist
//	        then decide(Min⟨i,m⟩)
//	    elseif m > 0 and (⟨i,m−1⟩ was low or HC⟨i,m−1⟩ < k)
//	        then decide(Min⟨i,m−1⟩)
//	    elseif m = ⌊t/k⌋+1 then decide(Min⟨i,m⟩)
package core

import (
	"fmt"
	"math/bits"

	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// Params configures a protocol instance: n processes, an a-priori bound of
// t crashes, and coordination degree k.
type Params struct {
	N int
	T int
	K int
}

// Validate checks the parameter ranges of §2.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("core: need n ≥ 2, got %d", p.N)
	}
	if p.T < 0 || p.T > p.N-1 {
		return fmt.Errorf("core: need 0 ≤ t ≤ n−1, got t=%d n=%d", p.T, p.N)
	}
	if p.K < 1 {
		return fmt.Errorf("core: need k ≥ 1, got %d", p.K)
	}
	return nil
}

// Optmin is the unbeatable nonuniform k-set consensus protocol of §4.1.
// A process decides its minimum seen value as soon as it is low (has seen
// a value < k) or its hidden capacity drops below k. Every process decides
// by time ⌊f/k⌋+1 (Proposition 1), and by Theorem 1 no protocol solving
// nonuniform k-set consensus can have any process decide earlier in any
// run without some process deciding later in another.
type Optmin struct {
	p    Params
	name string
}

// NewOptmin builds Optmin[k] for the given parameters.
func NewOptmin(p Params) (*Optmin, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Optmin{p: p, name: fmt.Sprintf("Optmin[%d]", p.K)}, nil
}

// MustOptmin is NewOptmin for fixed test/experiment parameters.
func MustOptmin(p Params) *Optmin {
	o, err := NewOptmin(p)
	if err != nil {
		panic(err)
	}
	return o
}

// NewOpt0 builds the k=1 specialization: the unbeatable (1-set) consensus
// protocol Opt0 reviewed in §3 ("if seen 0 decide 0; else if some time
// contains no hidden node decide 1"), which is exactly Optmin[1].
func NewOpt0(n, t int) (*Optmin, error) {
	o, err := NewOptmin(Params{N: n, T: t, K: 1})
	if err != nil {
		return nil, err
	}
	o.name = "Opt0"
	return o, nil
}

// Name implements sim.Protocol.
func (o *Optmin) Name() string { return o.name }

// Params returns the protocol parameters.
func (o *Optmin) Params() Params { return o.p }

// WorstCaseDecisionTime implements sim.Protocol: ⌊t/k⌋+1 bounds ⌊f/k⌋+1.
func (o *Optmin) WorstCaseDecisionTime() int { return o.p.T/o.p.K + 1 }

// Decide implements sim.Protocol with the Optmin[k] rule.
func (o *Optmin) Decide(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
	if g.Low(i, m, o.p.K) || g.HiddenCapacity(i, m) < o.p.K {
		return g.Min(i, m), true
	}
	return 0, false
}

// DecideStep implements sim.StepRule: the Optmin[k] rule for every
// candidate of time m, read off the graph's Min and HC rows of time m.
func (o *Optmin) DecideStep(g *knowledge.Graph, m int, cand []uint64, decs []sim.Decision) {
	k := o.p.K
	mins, hcs := g.MinRow(m), g.HCRow(m)
	for x, word := range cand {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := x<<6 | b
			if min := minAt(g, mins, i, m); min < k || hcs[i] < k {
				decs[i].Value = min
			} else {
				cand[x] &^= 1 << uint(b)
			}
		}
	}
}

// minAt reads Min⟨i,m⟩ off its row, deferring to Graph.Min where the row
// holds the empty-Vals sentinel, so a step rule panics exactly where
// Decide would.
func minAt(g *knowledge.Graph, row []model.Value, i model.Proc, m int) model.Value {
	if v := row[i]; v != knowledge.NoKnownCrash {
		return v
	}
	return g.Min(i, m)
}

// UPmin is the uniform k-set consensus protocol u-Pmin[k] of §5. Every
// process decides by time min{⌊t/k⌋+1, ⌊f/k⌋+2} (Theorem 3), and the
// protocol strictly dominates the early-deciding uniform protocols of the
// literature; on the Fig. 4 family it decides at time 2 where they need
// ⌊t/k⌋+1.
type UPmin struct {
	p    Params
	name string
	// deadline is ⌊t/k⌋+1, the time of the third rule.
	deadline int
}

// NewUPmin builds u-Pmin[k] for the given parameters.
func NewUPmin(p Params) (*UPmin, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &UPmin{p: p, name: fmt.Sprintf("u-Pmin[%d]", p.K), deadline: p.T/p.K + 1}, nil
}

// MustUPmin is NewUPmin for fixed test/experiment parameters.
func MustUPmin(p Params) *UPmin {
	u, err := NewUPmin(p)
	if err != nil {
		panic(err)
	}
	return u
}

// NewUOpt0 builds the k=1 specialization u-Opt0 (uniform consensus).
func NewUOpt0(n, t int) (*UPmin, error) {
	u, err := NewUPmin(Params{N: n, T: t, K: 1})
	if err != nil {
		return nil, err
	}
	u.name = "u-Opt0"
	return u, nil
}

// Name implements sim.Protocol.
func (u *UPmin) Name() string { return u.name }

// Params returns the protocol parameters.
func (u *UPmin) Params() Params { return u.p }

// WorstCaseDecisionTime implements sim.Protocol: the unconditional
// deadline of the third rule.
func (u *UPmin) WorstCaseDecisionTime() int { return u.p.T/u.p.K + 1 }

// Decide implements sim.Protocol with the u-Pmin[k] rule.
func (u *UPmin) Decide(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
	k, t := u.p.K, u.p.T
	if g.Low(i, m, k) || g.HiddenCapacity(i, m) < k {
		if min := g.Min(i, m); g.Persists(i, m, min, t) {
			return min, true
		}
	}
	if m > 0 && (g.Low(i, m-1, k) || g.HiddenCapacity(i, m-1) < k) {
		return g.Min(i, m-1), true
	}
	if m == t/k+1 {
		return g.Min(i, m), true
	}
	return 0, false
}

// DecideStep implements sim.StepRule: the u-Pmin[k] rule for every
// candidate of time m, read off the graph's Min and HC rows of times m
// and m−1, with the three rules as the cases of one switch, in Decide's
// order. Two facts spare it calls to Persists:
//   - Persists' first disjunct, v ∈ Vals⟨i,m−1⟩ for an active i, holds
//     for v = Min⟨i,m⟩ exactly when Min⟨i,m−1⟩ = Min⟨i,m⟩, since
//     Vals⟨i,m−1⟩ ⊆ Vals⟨i,m⟩;
//   - at time 0 no node knows of a failure and there is no earlier
//     layer, so by Definition 3 a value persists there only if t = 0,
//     and the other two rules need m > 0 and m = ⌊t/k⌋+1 ≥ 1: for t > 0
//     nobody decides at time 0.
func (u *UPmin) DecideStep(g *knowledge.Graph, m int, cand []uint64, decs []sim.Decision) {
	k, t := u.p.K, u.p.T
	mins, hcs := g.MinRow(m), g.HCRow(m)
	if m == 0 && t > 0 {
		for x, word := range cand {
			for ; word != 0; word &= word - 1 {
				minAt(g, mins, x<<6|bits.TrailingZeros64(word), 0) // panics where Decide's Min would
			}
			cand[x] = 0
		}
		return
	}
	deadline := m == u.deadline
	var prevMins []model.Value
	var prevHCs []int
	if m > 0 {
		prevMins, prevHCs = g.MinRow(m-1), g.HCRow(m-1)
	}
	for x, word := range cand {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := x<<6 | b
			min := minAt(g, mins, i, m)
			switch {
			case (min < k || hcs[i] < k) && (m > 0 && prevMins[i] == min || g.Persists(i, m, min, t)):
				decs[i].Value = min
			case m > 0 && (minAt(g, prevMins, i, m-1) < k || prevHCs[i] < k):
				decs[i].Value = prevMins[i]
			case deadline:
				decs[i].Value = min
			default:
				cand[x] &^= 1 << uint(b)
			}
		}
	}
}
