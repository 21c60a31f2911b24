package check_test

import (
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/check"
	"setconsensus/internal/check/checkref"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// TestMaskVerifierFlagsViolations runs sim.Func rules that break each
// property of the task — a decided value outside the inputs (just past
// the largest input, and far past it), k+1 decided values, a correct
// process left undecided, and a faulty process deciding a value of its
// own — through the step loop, at n = 5 and at n = 70 (two-word masks,
// with the culprit in the second word), and checks that the mask-based
// VerifyRun, with the run's decider mask and without it, flags exactly
// what the set-based reference flags, message for message, for the
// uniform and the nonuniform task at k = 1 and 2. Every rule but the
// faulty-only one must be flagged under both tasks.
func TestMaskVerifierFlagsViolations(t *testing.T) {
	for _, n := range []int{5, 70} {
		last := n - 1 // the culprit: in the second mask word at n = 70
		inputs := make([]model.Value, n)
		for i := range inputs {
			inputs[i] = i % 3
		}
		pat := model.NewFailurePattern(n)
		pat.SetCrash(model.Crash{Proc: last, Round: 2, Delivered: bitset.New(n)})
		adv := model.NewAdversary(inputs, pat)
		if err := adv.Validate(-1, -1); err != nil {
			t.Fatal(err)
		}
		rules := []struct {
			name    string
			flagged bool
			rule    func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool)
		}{
			{"non-input value", true, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				if i == n-2 {
					return 3, true // one past the largest input, in the inputs' word
				}
				return g.Min(i, m), m == 1
			}},
			{"value past the input words", true, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				if i == n-2 {
					return 1 << 19, m == 1
				}
				return g.Min(i, m), m == 1
			}},
			{"negative value", true, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				if i == n-2 {
					return -1, m == 0
				}
				return g.Min(i, m), m == 1
			}},
			{"k+1 values", true, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				return g.Adv.Inputs[i], m == 0 // every correct process keeps its own value
			}},
			{"correct process undecided", true, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				return g.Min(i, m), m == 1 && i != n-2
			}},
			{"faulty decider's own value", false, func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				if i == last {
					return 2, m == 0
				}
				return 0, m == 1 // everyone has seen process 0's input 0 by time 1
			}},
		}
		for _, r := range rules {
			p := &sim.Func{ProtoName: r.name, Horizon: 2, Rule: r.rule}
			res := sim.Run(p, adv)
			bare := &sim.Result{ProtocolName: res.ProtocolName, Adv: res.Adv, Decisions: res.Decisions}
			var sc check.Scratch
			for _, k := range []int{1, 2} {
				for _, uniform := range []bool{false, true} {
					task := check.Task{K: k, Uniform: uniform}
					want := checkref.VerifyRun(res, task)
					if r.flagged && want == nil {
						t.Fatalf("n=%d %s, %s: the reference passes a run built to violate it", n, r.name, task)
					}
					for _, got := range []error{check.VerifyRun(res, task), check.VerifyRun(bare, task), sc.VerifyRun(res, task)} {
						if !checkref.SameVerdict(got, want) {
							t.Fatalf("n=%d %s, %s:\nmask      %v\nreference %v", n, r.name, task, got, want)
						}
					}
				}
			}
			if !r.flagged {
				if err := check.VerifyRun(res, check.Task{K: 1}); err != nil {
					t.Errorf("n=%d %s: nonuniform consensus should ignore the faulty decider: %v", n, r.name, err)
				}
				if err := check.VerifyRun(res, check.Task{K: 1, Uniform: true}); err == nil {
					t.Errorf("n=%d %s: uniform consensus must count the faulty decider", n, r.name)
				}
			}
		}
	}
}
