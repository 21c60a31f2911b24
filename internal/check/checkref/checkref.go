// Package checkref is the set-based task verifier that internal/check's
// mask-based VerifyRun replaced, kept as its oracle. It rebuilds the
// correct, input-value and decided-value sets of one run from the
// adversary and the run's []*Decision, and ignores the run's decider
// mask. Only tests import it: check's own, the run-path differential
// and the step-rule fuzzer compare check.VerifyRun with it, verdict for
// verdict and message for message.
package checkref

import (
	"fmt"

	"setconsensus/internal/bitset"
	"setconsensus/internal/check"
	"setconsensus/internal/sim"
)

// VerifyRun checks Decision, Validity and k-Agreement (§2.3) on one
// finished run, naming the first violated property as check.VerifyRun
// does.
func VerifyRun(res *sim.Result, task check.Task) error {
	adv := res.Adv
	correct := &bitset.Set{}
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
	present := &bitset.Set{}
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
	decided := res.AppendDecidedValues(&bitset.Set{}, deciders)
	if decided.Count() > task.K {
		return fmt.Errorf("%s: %s Agreement violated: values %s decided (%s)",
			res.ProtocolName, task, decided, adv)
	}
	return nil
}

// SameVerdict reports whether two verifier results agree: both nil, or
// both errors with the same message.
func SameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
