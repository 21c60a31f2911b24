// Package check verifies runs against the k-set consensus task
// specifications of §2.3 and compares protocols under the domination
// preorder of §2.2.
package check

import (
	"fmt"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// Task specifies a decision task instance.
type Task struct {
	K       int  // agreement degree
	Uniform bool // count faulty processes' decisions too
}

// String names the task.
func (t Task) String() string {
	if t.Uniform {
		return fmt.Sprintf("uniform %d-set consensus", t.K)
	}
	return fmt.Sprintf("nonuniform %d-set consensus", t.K)
}

// VerifyRun checks the three properties of §2.3 on one finished run:
//
//	Decision:     every correct process decides;
//	Validity:     only values some process started with are decided;
//	k-Agreement:  the correct (or, for uniform, all) decided values
//	              number at most K.
//
// It returns nil when the run satisfies the task, and a descriptive error
// naming the first violated property otherwise.
func VerifyRun(res *sim.Result, task Task) error {
	var sc Scratch
	return sc.VerifyRun(res, task)
}

// Scratch holds the working sets one VerifyRun call needs. Sweep paths
// that verify every run keep one Scratch per worker and call its
// VerifyRun method: after the first run nothing allocates on the
// satisfied path (errors still render their diagnostics). A Scratch
// serves one goroutine at a time.
type Scratch struct {
	present, deciders, decided bitset.Set
}

// Bytes reports the capacity the scratch's three sets pin, for the
// engine's memory governor.
func (sc *Scratch) Bytes() int64 {
	return 8 * int64(cap(sc.present.Words())+cap(sc.deciders.Words())+cap(sc.decided.Words()))
}

// VerifyRun is the allocation-free form of the package-level VerifyRun:
// identical verdicts and messages, with every intermediate set drawn
// from the scratch.
func (sc *Scratch) VerifyRun(res *sim.Result, task Task) error {
	adv := res.Adv
	// The correct processes, in one walk of the pattern's crashes.
	correct := sc.deciders.Clear()
	for i := 0; i < adv.N(); i++ {
		correct.Add(i)
	}
	for _, c := range adv.Pattern.Crashes {
		correct.Remove(c.Proc)
	}
	// Decision.
	for i := 0; i < adv.N(); i++ {
		if res.Decisions[i] == nil && correct.Contains(i) {
			return fmt.Errorf("%s: Decision violated: correct process %d never decides (%s)",
				res.ProtocolName, i, adv)
		}
	}
	// Validity.
	present := sc.present.Clear()
	for _, v := range adv.Inputs {
		present.Add(v)
	}
	for i, d := range res.Decisions {
		if d != nil && !present.Contains(d.Value) {
			return fmt.Errorf("%s: Validity violated: process %d decided %d ∉ inputs (%s)",
				res.ProtocolName, i, d.Value, adv)
		}
	}
	// Agreement.
	deciders := correct
	if task.Uniform {
		for i := 0; i < adv.N(); i++ {
			deciders.Add(i)
		}
	}
	decided := res.AppendDecidedValues(sc.decided.Clear(), deciders)
	if decided.Count() > task.K {
		return fmt.Errorf("%s: %s Agreement violated: values %s decided (%s)",
			res.ProtocolName, task, decided, adv)
	}
	return nil
}

// VerifyDecisionBound checks that every correct process decides no later
// than bound(f), where f is the actual number of crashes in the run.
func VerifyDecisionBound(res *sim.Result, bound func(f int) int) error {
	f := res.Adv.Pattern.NumFailures()
	limit := bound(f)
	for i := 0; i < res.Adv.N(); i++ {
		if !res.Adv.Pattern.Correct(i) {
			continue
		}
		d := res.Decisions[i]
		if d == nil {
			return fmt.Errorf("%s: correct process %d undecided (bound %d, %s)",
				res.ProtocolName, i, limit, res.Adv)
		}
		if d.Time > limit {
			return fmt.Errorf("%s: process %d decided at %d > bound %d (f=%d, %s)",
				res.ProtocolName, i, d.Time, limit, f, res.Adv)
		}
	}
	return nil
}

// Strict records one point where protocol P decided strictly earlier than
// protocol Q.
type Strict struct {
	Adv     *model.Adversary
	Proc    model.Proc
	PTime   int
	QTime   int // −1 when Q never decided for this process
	PName   string
	QName   string
	Uniform bool
}

func (s Strict) String() string {
	return fmt.Sprintf("%s decides ⟨%d⟩ at %d vs %s at %d on %s",
		s.PName, s.Proc, s.PTime, s.QName, s.QTime, s.Adv)
}

// Domination accumulates a pointwise decision-time comparison of two
// protocols over a set of adversaries, following Definition (§2.2):
// P dominates Q iff whenever a process decides in Q[α] at time m, it
// decides in P[α] at some time ≤ m.
type Domination struct {
	PName, QName string
	// Violations: points where Q decided but P was later (or absent).
	Violations []Strict
	// StrictWins: points where P decided strictly earlier than Q (or Q
	// never decided while P did).
	StrictWins []Strict
	// NumViolations and NumStrictWins count every such point, witnessed
	// or not.
	NumViolations int
	NumStrictWins int
	Compared      int
	keepAll       bool
}

// NewDomination prepares a comparison of P against Q. If keepAll is false
// only the first few witnesses of each kind are retained (enough for
// reports and tests) to bound memory on exhaustive sweeps; the counts
// stay exact either way.
func NewDomination(pName, qName string, keepAll bool) *Domination {
	return &Domination{PName: pName, QName: qName, keepAll: keepAll}
}

const maxWitnesses = 16

// Add compares the two runs of one adversary. Both results must concern
// the same adversary.
func (d *Domination) Add(p, q *sim.Result) {
	d.Compared++
	for i := 0; i < p.Adv.N(); i++ {
		pt, qt := p.DecisionTime(i), q.DecisionTime(i)
		switch {
		case qt >= 0 && (pt < 0 || pt > qt):
			d.NumViolations++
			if d.keepAll || len(d.Violations) < maxWitnesses {
				d.Violations = append(d.Violations, Strict{
					Adv: p.Adv, Proc: i, PTime: pt, QTime: qt, PName: d.PName, QName: d.QName})
			}
		case pt >= 0 && (qt < 0 || pt < qt):
			d.NumStrictWins++
			if d.keepAll || len(d.StrictWins) < maxWitnesses {
				d.StrictWins = append(d.StrictWins, Strict{
					Adv: p.Adv, Proc: i, PTime: pt, QTime: qt, PName: d.PName, QName: d.QName})
			}
		}
	}
}

// Dominates reports whether P decided no later than Q at every compared
// point.
func (d *Domination) Dominates() bool { return d.NumViolations == 0 }

// StrictlyDominates reports whether P dominates Q and beat it somewhere.
func (d *Domination) StrictlyDominates() bool {
	return d.Dominates() && d.NumStrictWins > 0
}

// Summary renders a one-line verdict.
func (d *Domination) Summary() string {
	switch {
	case d.StrictlyDominates():
		return fmt.Sprintf("%s strictly dominates %s (%d adversaries, %d strict wins)",
			d.PName, d.QName, d.Compared, d.NumStrictWins)
	case d.Dominates():
		return fmt.Sprintf("%s dominates %s (%d adversaries, no strict win observed)",
			d.PName, d.QName, d.Compared)
	default:
		return fmt.Sprintf("%s does NOT dominate %s: e.g. %s",
			d.PName, d.QName, d.Violations[0])
	}
}

// LastDecider accumulates the last-decider comparison of Definition 6
// (Appendix D): P last-decider dominates Q iff in every run the last
// correct decision in P is no later than the last correct decision in Q.
type LastDecider struct {
	PName, QName string
	// Violations and StrictWins witness the first few runs whose last
	// correct decision came later, and strictly earlier, in P than in
	// Q; NumViolations and NumStrictWins count every such run.
	Violations    []Strict
	StrictWins    []Strict
	NumViolations int
	NumStrictWins int
	Compared      int
}

// NewLastDecider prepares a last-decider comparison of P against Q.
func NewLastDecider(pName, qName string) *LastDecider {
	return &LastDecider{PName: pName, QName: qName}
}

// Add compares the two runs of one adversary.
func (d *LastDecider) Add(p, q *sim.Result) {
	d.Compared++
	pt, qt := p.MaxCorrectDecisionTime(), q.MaxCorrectDecisionTime()
	switch {
	case qt >= 0 && (pt < 0 || pt > qt):
		d.NumViolations++
		if len(d.Violations) < maxWitnesses {
			d.Violations = append(d.Violations, Strict{Adv: p.Adv, PTime: pt, QTime: qt, PName: d.PName, QName: d.QName})
		}
	case pt >= 0 && (qt < 0 || pt < qt):
		d.NumStrictWins++
		if len(d.StrictWins) < maxWitnesses {
			d.StrictWins = append(d.StrictWins, Strict{Adv: p.Adv, PTime: pt, QTime: qt, PName: d.PName, QName: d.QName})
		}
	}
}

// Dominates reports whether P's last correct decision was never later.
func (d *LastDecider) Dominates() bool { return d.NumViolations == 0 }

// StrictlyDominates reports domination with at least one strict win.
func (d *LastDecider) StrictlyDominates() bool {
	return d.Dominates() && d.NumStrictWins > 0
}
