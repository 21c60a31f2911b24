package check

import (
	"fmt"
	"strings"
	"testing"

	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

func fixedDecider(name string, when int, value func(g *knowledge.Graph, i model.Proc, m int) model.Value) *sim.Func {
	return &sim.Func{
		ProtoName: name,
		Horizon:   when,
		Rule: func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
			if m == when {
				return value(g, i, m), true
			}
			return 0, false
		},
	}
}

func floodMin(when int) *sim.Func {
	return fixedDecider("flood", when, func(g *knowledge.Graph, i model.Proc, m int) model.Value {
		return g.Min(i, m)
	})
}

func TestVerifyRunPasses(t *testing.T) {
	adv := model.NewBuilder(3, 1).Input(0, 0).MustBuild()
	res := sim.Run(floodMin(1), adv)
	if err := VerifyRun(res, Task{K: 1}); err != nil {
		t.Errorf("valid run rejected: %v", err)
	}
	if err := VerifyRun(res, Task{K: 1, Uniform: true}); err != nil {
		t.Errorf("valid uniform run rejected: %v", err)
	}
}

func TestVerifyRunDecisionViolation(t *testing.T) {
	adv := model.NewBuilder(3, 1).MustBuild()
	never := &sim.Func{ProtoName: "never", Horizon: 2,
		Rule: func(*knowledge.Graph, model.Proc, int) (model.Value, bool) { return 0, false }}
	err := VerifyRun(sim.Run(never, adv), Task{K: 1})
	if err == nil || !strings.Contains(err.Error(), "Decision") {
		t.Errorf("want Decision violation, got %v", err)
	}
}

func TestVerifyRunValidityViolation(t *testing.T) {
	adv := model.NewBuilder(3, 1).MustBuild()
	invent := fixedDecider("invent", 1, func(*knowledge.Graph, model.Proc, int) model.Value { return 7 })
	err := VerifyRun(sim.Run(invent, adv), Task{K: 1})
	if err == nil || !strings.Contains(err.Error(), "Validity") {
		t.Errorf("want Validity violation, got %v", err)
	}
}

func TestVerifyRunAgreementViolation(t *testing.T) {
	adv := model.NewBuilder(3, 1).Inputs(0, 1, 1).MustBuild()
	ownValue := fixedDecider("own", 1, func(g *knowledge.Graph, i model.Proc, m int) model.Value {
		return g.Adv.Inputs[i]
	})
	err := VerifyRun(sim.Run(ownValue, adv), Task{K: 1})
	if err == nil || !strings.Contains(err.Error(), "Agreement") {
		t.Errorf("want Agreement violation, got %v", err)
	}
	// k = 2 tolerates two values.
	if err := VerifyRun(sim.Run(ownValue, adv), Task{K: 2}); err != nil {
		t.Errorf("k=2 should accept two values: %v", err)
	}
}

func TestVerifyRunUniformCountsFaultyDeciders(t *testing.T) {
	// Faulty process 2 decides its own value 0 at time 1, then crashes in
	// round 2; the correct processes decide 1. Nonuniform passes (k=1),
	// uniform fails.
	adv := model.NewBuilder(3, 1).Input(2, 0).CrashSilent(2, 2).MustBuild()
	ownValue := fixedDecider("own", 1, func(g *knowledge.Graph, i model.Proc, m int) model.Value {
		if i == 2 {
			return 0
		}
		return 1
	})
	res := sim.Run(ownValue, adv)
	if err := VerifyRun(res, Task{K: 1}); err != nil {
		t.Errorf("nonuniform should ignore the faulty decision: %v", err)
	}
	if err := VerifyRun(res, Task{K: 1, Uniform: true}); err == nil {
		t.Error("uniform must count the faulty decision")
	}
}

func TestVerifyDecisionBound(t *testing.T) {
	adv := model.NewBuilder(3, 1).CrashSilent(2, 1).MustBuild()
	res := sim.Run(floodMin(2), adv)
	if err := VerifyDecisionBound(res, func(f int) int { return f + 2 }); err != nil {
		t.Errorf("bound f+2=3 should pass: %v", err)
	}
	if err := VerifyDecisionBound(res, func(f int) int { return f }); err == nil {
		t.Error("bound f=1 should fail for decisions at 2")
	}
}

func TestDominationVerdicts(t *testing.T) {
	adv := model.NewBuilder(3, 1).Input(0, 0).MustBuild()
	fast, slow := floodMin(1), floodMin(2)

	d := NewDomination("fast", "slow", false)
	d.Add(sim.Run(fast, adv), sim.Run(slow, adv))
	if !d.StrictlyDominates() {
		t.Errorf("fast must strictly dominate slow: %s", d.Summary())
	}

	rev := NewDomination("slow", "fast", false)
	rev.Add(sim.Run(slow, adv), sim.Run(fast, adv))
	if rev.Dominates() {
		t.Errorf("slow must not dominate fast: %s", rev.Summary())
	}
	if !strings.Contains(rev.Summary(), "does NOT dominate") {
		t.Errorf("summary = %q", rev.Summary())
	}

	same := NewDomination("fast", "fast", false)
	same.Add(sim.Run(fast, adv), sim.Run(fast, adv))
	if !same.Dominates() || same.StrictlyDominates() {
		t.Errorf("self-comparison must dominate non-strictly: %s", same.Summary())
	}
}

func TestDominationAbsentDecisionCounts(t *testing.T) {
	// Q decides where P never does: P cannot dominate.
	adv := model.NewBuilder(2, 0).MustBuild()
	never := &sim.Func{ProtoName: "never", Horizon: 2,
		Rule: func(*knowledge.Graph, model.Proc, int) (model.Value, bool) { return 0, false }}
	d := NewDomination("never", "flood", false)
	d.Add(sim.Run(never, adv), sim.Run(floodMin(1), adv))
	if d.Dominates() {
		t.Error("a protocol that never decides cannot dominate one that does")
	}
}

// TestDominationCountsPastWitnessCap pins the counts against the
// witness cap: over more strict wins than maxWitnesses, the witness
// lists stop at the cap while NumStrictWins, and Summary, count them
// all; the same holds for violations and for LastDecider.
func TestDominationCountsPastWitnessCap(t *testing.T) {
	adv := model.NewBuilder(3, 1).Input(0, 0).MustBuild()
	fast, slow := sim.Run(floodMin(1), adv), sim.Run(floodMin(2), adv)
	const runs = maxWitnesses + 4
	d := NewDomination("fast", "slow", false)
	rev := NewDomination("slow", "fast", false)
	ld := NewLastDecider("fast", "slow")
	ldRev := NewLastDecider("slow", "fast")
	for range runs {
		d.Add(fast, slow)
		rev.Add(slow, fast)
		ld.Add(fast, slow)
		ldRev.Add(slow, fast)
	}
	n := adv.N()
	if d.NumStrictWins != runs*n || len(d.StrictWins) != maxWitnesses {
		t.Errorf("domination: %d strict wins with %d witnesses, want %d with %d", d.NumStrictWins, len(d.StrictWins), runs*n, maxWitnesses)
	}
	if want := fmt.Sprintf("%d strict wins", runs*n); !strings.Contains(d.Summary(), want) {
		t.Errorf("summary %q lacks %q", d.Summary(), want)
	}
	if rev.NumViolations != runs*n || len(rev.Violations) != maxWitnesses || rev.Dominates() {
		t.Errorf("reverse domination: %d violations with %d witnesses, want %d with %d", rev.NumViolations, len(rev.Violations), runs*n, maxWitnesses)
	}
	if ld.NumStrictWins != runs || len(ld.StrictWins) != maxWitnesses || !ld.StrictlyDominates() {
		t.Errorf("last decider: %d strict wins with %d witnesses, want %d with %d", ld.NumStrictWins, len(ld.StrictWins), runs, maxWitnesses)
	}
	if ldRev.NumViolations != runs || len(ldRev.Violations) != maxWitnesses || ldRev.Dominates() {
		t.Errorf("reverse last decider: %d violations with %d witnesses, want %d with %d", ldRev.NumViolations, len(ldRev.Violations), runs, maxWitnesses)
	}
}

func TestLastDecider(t *testing.T) {
	// fast: everyone at 1. staggered: process 0 at 0, rest at 2 — its
	// FIRST decision is earlier but its LAST is later, so fast strictly
	// last-decider dominates while staggered does not dominate fast.
	adv := model.NewBuilder(3, 1).MustBuild()
	staggered := &sim.Func{ProtoName: "staggered", Horizon: 2,
		Rule: func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
			if i == 0 {
				return g.Min(i, m), m == 0
			}
			return g.Min(i, m), m == 2
		}}
	fast := floodMin(1)

	ld := NewLastDecider("fast", "staggered")
	ld.Add(sim.Run(fast, adv), sim.Run(staggered, adv))
	if !ld.StrictlyDominates() {
		t.Error("fast must strictly last-decider dominate staggered")
	}

	rev := NewLastDecider("staggered", "fast")
	rev.Add(sim.Run(staggered, adv), sim.Run(fast, adv))
	if rev.Dominates() {
		t.Error("staggered must not last-decider dominate fast")
	}
}

func TestTaskString(t *testing.T) {
	if got := (Task{K: 2}).String(); got != "nonuniform 2-set consensus" {
		t.Errorf("String = %q", got)
	}
	if got := (Task{K: 1, Uniform: true}).String(); got != "uniform 1-set consensus" {
		t.Errorf("String = %q", got)
	}
}
