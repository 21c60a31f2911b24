// Package check verifies runs against the k-set consensus task
// specifications of §2.3 and compares protocols under the domination
// preorder of §2.2.
//
// Verification is word-set arithmetic: Decision is correct ⊆ deciders,
// Validity holds when every decider's value is in the input-value set,
// and k-Agreement counts the values the correct (for uniform, all)
// deciders chose. The decider mask is the one the run recorded
// (sim.Result.Deciders), on every backend, or is derived from the
// decisions when a result carries none; the correct and input-value
// sets are per adversary, so a sweep prepares them once for all its
// protocols (Scratch.Prepare) and verifies each run against them
// (Scratch.Verify). The set-based verifier this replaced is kept, for
// tests only, in internal/check/checkref.
package check

import (
	"fmt"
	"math/bits"

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

// Scratch verifies runs as operations on word sets: the run's decider
// mask (sim.Result.Deciders, bit i&63 of word i>>6), its adversary's
// correct set and input-value set, and the set of values the run
// decided. One Scratch serves one goroutine. Sweeps keep one per worker,
// Prepare it once per adversary and Verify each of the adversary's
// runs, so the adversary's sets are built once for all its protocols;
// after warm-up nothing allocates on the satisfied path (errors still
// render their diagnostics).
type Scratch struct {
	// words is one slab: the correct set (w words), a decider mask
	// derived for results that carry none (w), the input-value set (wv)
	// and the decided-value set (wv), which Verify clears per run. Value
	// sets span the largest input, as the graph's value rows do.
	words []uint64
	w, wv int
}

// Bytes reports the capacity the scratch's slab pins, for the engine's
// memory governor.
func (sc *Scratch) Bytes() int64 { return 8 * int64(cap(sc.words)) }

// Prepare computes adv's correct set and input-value set, which every
// Verify until the next Prepare reads.
func (sc *Scratch) Prepare(adv *model.Adversary) {
	n := adv.N()
	maxV := -1
	for _, v := range adv.Inputs {
		maxV = max(maxV, v)
	}
	sc.w, sc.wv = (n+63)>>6, 1
	if maxV >= 0 {
		sc.wv = maxV>>6 + 1
	}
	need := 2*sc.w + 2*sc.wv
	if cap(sc.words) < need {
		sc.words = make([]uint64, need)
	}
	sc.words = sc.words[:need]
	correct, inputs := sc.words[:sc.w], sc.words[2*sc.w:2*sc.w+sc.wv]
	// Word loops, not clear: the sets are a word or two, and a clear is
	// a call.
	for x := 0; x < len(inputs); x++ {
		inputs[x] = 0
	}
	for x := range correct {
		correct[x] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		correct[sc.w-1] = 1<<uint(r) - 1
	}
	for _, c := range adv.Pattern.Crashes {
		correct[c.Proc>>6] &^= 1 << uint(c.Proc&63)
	}
	for _, v := range adv.Inputs {
		if v >= 0 {
			inputs[v>>6] |= 1 << uint(v&63)
		}
	}
}

// VerifyRun is the allocation-free form of the package-level VerifyRun:
// it prepares the scratch for res.Adv and verifies res.
func (sc *Scratch) VerifyRun(res *sim.Result, task Task) error {
	sc.Prepare(res.Adv)
	return sc.Verify(res, task)
}

// Verify checks one run of the adversary the scratch was last prepared
// for, with the verdicts and messages of VerifyRun:
//
//	Decision:     correct ⊆ deciders, the first missing process named;
//	Validity:     each decider's value is in the input-value set;
//	k-Agreement:  the values of deciders ∩ correct (all deciders, for
//	              uniform) number at most K.
//
// Validity and k-Agreement share one pass over the deciders in
// increasing order, so the first invalid decider is the one named.
func (sc *Scratch) Verify(res *sim.Result, task Task) error {
	adv := res.Adv
	w, wv := sc.w, sc.wv
	correct := sc.words[:w]
	inputs := sc.words[2*w : 2*w+wv]
	values := sc.words[2*w+wv : 2*w+2*wv]
	deciders := res.Deciders
	if deciders == nil {
		deciders = sc.words[w : 2*w]
		clear(deciders)
		for i, d := range res.Decisions {
			if d != nil {
				deciders[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	// Decision.
	for x, c := range correct {
		if miss := c &^ deciders[x]; miss != 0 {
			return fmt.Errorf("%s: Decision violated: correct process %d never decides (%s)",
				res.ProtocolName, x<<6|bits.TrailingZeros64(miss), adv)
		}
	}
	// Validity, and the decided values agreement counts.
	for x := 0; x < len(values); x++ {
		values[x] = 0
	}
	for x, word := range deciders {
		counted := correct[x]
		if task.Uniform {
			counted = ^uint64(0)
		}
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			v := res.Decisions[x<<6|b].Value
			if v < 0 || v>>6 >= wv || inputs[v>>6]&(1<<uint(v&63)) == 0 {
				return fmt.Errorf("%s: Validity violated: process %d decided %d ∉ inputs (%s)",
					res.ProtocolName, x<<6|b, v, adv)
			}
			values[v>>6] |= (counted >> uint(b) & 1) << uint(v&63)
		}
	}
	// Agreement.
	count := 0
	for _, word := range values {
		count += bits.OnesCount64(word)
	}
	if count > task.K {
		decided := bitset.Wrap(values)
		return fmt.Errorf("%s: %s Agreement violated: values %s decided (%s)",
			res.ProtocolName, task, &decided, adv)
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
