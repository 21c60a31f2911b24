package wire

import (
	"fmt"

	"setconsensus/internal/core"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// Rule selects which of the paper's protocols drives decisions over the
// compact state.
type Rule int

// The decision rules runnable over the wire protocol.
const (
	RuleOptmin Rule = iota + 1
	RuleUPmin
)

// Result is the outcome of a compact-protocol run with bit accounting.
type Result struct {
	// Decisions[i] is process i's decision, nil if it never decided; it
	// aliases the scratch the run decided into.
	Decisions []*sim.Decision
	// BitsSent[i][j] counts the bits i sent to j over the whole run
	// (delivered messages; i ≠ j).
	BitsSent [][]int
}

// MaxPairBits returns the largest per-ordered-pair bit total.
func (r *Result) MaxPairBits() int {
	max := 0
	for _, row := range r.BitsSent {
		for _, b := range row {
			if b > max {
				max = b
			}
		}
	}
	return max
}

// Run executes the compact protocol under the given decision rule against
// an adversary, deterministically, records every decision in sc, which it
// resets for the adversary's processes, and returns the decisions plus
// per-link bit counts. Decisions must (and, per the equivalence tests, do)
// match the full-information oracle exactly.
func Run(rule Rule, p core.Params, adv *model.Adversary, sc *sim.Scratch) (*Result, error) {
	return RunHooked(rule, p, adv, sc, nil)
}

// RunHooked is Run with an inspection hook invoked after every time step
// (including time 0) with the current states; the equivalence tests use
// it to compare the reconstructed knowledge against the oracle at every
// node, not just at decisions. Every process active and undecided at a
// time asks its State's Decide, and a decision goes into sc with Put.
func RunHooked(rule Rule, p core.Params, adv *model.Adversary, sc *sim.Scratch, hook func(m int, states []*State)) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if adv.N() != p.N {
		return nil, fmt.Errorf("wire: adversary over %d processes, params say %d", adv.N(), p.N)
	}
	n := adv.N()
	horizon := p.T/p.K + 1

	states := make([]*State, n)
	for i := 0; i < n; i++ {
		states[i] = NewState(n, i, adv.Inputs[i])
	}
	res := &Result{Decisions: sc.Reset(n), BitsSent: make([][]int, n)}
	for i := range res.BitsSent {
		res.BitsSent[i] = make([]int, n)
	}
	// decide asks every process active and undecided at m, then shows
	// the states to the hook.
	decide := func(m int) {
		for i, st := range states {
			if res.Decisions[i] != nil || !adv.Pattern.Active(i, m) {
				continue
			}
			if v, ok := st.Decide(rule, p, m); ok {
				sc.Put(i, sim.Decision{Value: v, Time: m})
			}
		}
		if hook != nil {
			hook(m, states)
		}
	}

	// Time 0 decisions, then rounds 1..horizon.
	decide(0)
	for m := 1; m <= horizon; m++ {
		for i, st := range states {
			if adv.Pattern.Active(i, m-1) {
				st.Snapshot(p.K)
			}
		}
		// Collect outboxes of processes alive at send time m−1.
		outbox := make([][]Fact, n)
		for i := 0; i < n; i++ {
			if adv.Pattern.CrashRound(i) >= m { // sends (possibly partially) in round m
				outbox[i] = states[i].Outbox()
			}
		}
		// Deliver per the failure pattern, with bit accounting.
		for j := 0; j < n; j++ {
			if !adv.Pattern.Active(j, m) {
				continue
			}
			var msgs []Message
			for i := 0; i < n; i++ {
				if i == j || !adv.Pattern.Delivered(i, j, m) {
					continue
				}
				msgs = append(msgs, Message{From: i, Round: m, Facts: outbox[i]})
				res.BitsSent[i][j] += 8 * len(Encode(outbox[i]))
			}
			states[j].Deliver(m, msgs)
		}
		decide(m)
	}
	return res, nil
}
