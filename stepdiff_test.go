package setconsensus_test

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/check"
	"setconsensus/internal/check/checkref"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// differentialSpaces are the exhaustive n ≤ 4 spaces the repository's
// tests sweep (the conformance, search, wire, footnote-4, Lemma 2 and
// topology tests).
var differentialSpaces = []enum.Space{
	{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0}},
	{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}},
	{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
	{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1}},
	{N: 4, T: 2, MaxRound: 2, Values: []model.Value{2}},
	{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
	{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 2}},
	{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1, 2}},
	{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1, 3, 4}},
	{N: 4, T: 3, MaxRound: 2, Values: []model.Value{0}},
	{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0, 1}},
}

// decideOnly hides a protocol's step rule, so the run loop asks its
// Decide once per candidate.
type decideOnly struct{ sim.Protocol }

// stepChecker compares a step rule with its protocol's Decide over every
// node of a graph, in reused buffers.
type stepChecker struct {
	decs         []sim.Decision
	cand, active []uint64
}

// mismatch returns a description of the first node ⟨i,m⟩, over every
// active process at every time of g, where p's step rule decides
// otherwise than its Decide, or "" when they agree everywhere.
func (c *stepChecker) mismatch(p sim.Protocol, g *knowledge.Graph) string {
	step := p.(sim.StepRule)
	n, w := g.Adv.N(), (g.Adv.N()+63)>>6
	c.decs = append(c.decs[:0], make([]sim.Decision, n)...)
	c.cand = append(c.cand[:0], make([]uint64, w)...)
	for m := 0; m <= g.Horizon; m++ {
		clear(c.cand)
		for i := 0; i < n; i++ {
			if g.Active(i, m) {
				c.cand[i>>6] |= 1 << uint(i&63)
			}
		}
		c.active = append(c.active[:0], c.cand...)
		step.DecideStep(g, m, c.cand, c.decs)
		for x, word := range c.active {
			for ; word != 0; word &= word - 1 {
				i := x<<6 | bits.TrailingZeros64(word)
				v, ok := p.Decide(g, i, m)
				got := c.cand[x]&(1<<uint(i&63)) != 0
				if got != ok || ok && c.decs[i].Value != v {
					return fmt.Sprintf("%s at ⟨%d,%d⟩ of %s: step decides %v (value %d), Decide %v (value %d)",
						p.Name(), i, m, g.Adv, got, c.decs[i].Value, ok, v)
				}
			}
		}
	}
	return ""
}

// sameDecisions reports whether two runs decided the same values at
// the same times.
func sameDecisions(a, b *sim.Result) bool {
	if len(a.Decisions) != len(b.Decisions) {
		return false
	}
	for i, d := range a.Decisions {
		e := b.Decisions[i]
		if (d == nil) != (e == nil) || d != nil && *d != *e {
			return false
		}
	}
	return true
}

// differentialProtos is a per-Params cache of the registered protocols
// constructible at those parameters, with their shared horizon.
type differentialProtos struct {
	protos  []sim.Protocol
	horizon int
}

// TestStepRunMatchesDecide is the differential of the one-pass run path
// over every exhaustive n ≤ 4 space the tests use, at k = 1..3, with t
// fixed at the space's bound and with t taken from each pattern's
// failure count:
//   - at every node ⟨i,m⟩ with i active, Optmin's and u-Pmin's step
//     rules decide exactly what their Decide does, and a run through the
//     step rule equals a run that asks Decide per candidate;
//   - for every registered protocol constructible at those parameters,
//     the mask-based check.VerifyRun, fed the run's decider mask, returns
//     the set-based reference's verdict, message included, for the
//     uniform and the nonuniform task.
//
// Under -short and the race detector it takes every 37th adversary of
// each space.
func TestStepRunMatchesDecide(t *testing.T) {
	stride := 1
	if testing.Short() || raceDetector {
		stride = 37
	}
	reg := setconsensus.DefaultRegistry()
	for _, space := range differentialSpaces {
		t.Run(fmt.Sprintf("n=%d,t=%d,r=%d,v=%v", space.N, space.T, space.MaxRound, space.Values), func(t *testing.T) {
			t.Parallel()
			builder := knowledge.NewBuilder()
			cache := map[setconsensus.Params]*differentialProtos{}
			var (
				steps        stepChecker
				sc, scOnly   sim.Scratch
				res, resOnly sim.Result
				verify       check.Scratch
			)
			for k := 1; k <= 3; k++ {
				for _, fixedT := range []bool{true, false} {
					seen, runs := 0, 0
					err := space.ForEach(func(adv *model.Adversary) bool {
						if seen++; (seen-1)%stride != 0 {
							return true
						}
						p := setconsensus.Params{N: adv.N(), T: space.T, K: k}
						if !fixedT {
							p.T = adv.Pattern.NumFailures()
						}
						ps := cache[p]
						if ps == nil {
							ps = &differentialProtos{}
							for _, spec := range reg.Specs() {
								if proto, err := spec.New(p); err == nil {
									ps.protos = append(ps.protos, proto)
									ps.horizon = max(ps.horizon, spec.WorstCaseTime(p))
								}
							}
							cache[p] = ps
						}
						g := builder.Build(adv, ps.horizon)
						defer g.Release()
						for _, proto := range ps.protos {
							sim.RunWithGraphInto(proto, g, &sc, &res)
							runs++
							if _, ok := proto.(sim.StepRule); ok {
								if msg := steps.mismatch(proto, g); msg != "" {
									t.Error(msg)
									return false
								}
								if sim.RunWithGraphInto(decideOnly{proto}, g, &scOnly, &resOnly); !sameDecisions(&res, &resOnly) {
									t.Errorf("%s on %s: step run %v, per-candidate run %v", proto.Name(), adv, &res, &resOnly)
									return false
								}
							}
							for _, uniform := range []bool{false, true} {
								task := check.Task{K: k, Uniform: uniform}
								if got, want := verify.VerifyRun(&res, task), checkref.VerifyRun(&res, task); !checkref.SameVerdict(got, want) {
									t.Errorf("%s on %s, %s:\nmask      %v\nreference %v", proto.Name(), adv, task, got, want)
									return false
								}
							}
						}
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
					if t.Failed() {
						t.Fatalf("k=%d, fixed t %v", k, fixedT)
					}
					if runs == 0 {
						t.Fatalf("k=%d: no protocol ran", k)
					}
				}
			}
		})
	}
}

// violatorRegistry is the default registry plus two protocols that
// violate the task on every run they decide: "own-input" decides each
// process's input at time 0 (k-Agreement, wherever k+1 inputs differ),
// and "invent" has the last process decide a value no input has
// (Validity).
func violatorRegistry(t *testing.T) *setconsensus.Registry {
	reg := setconsensus.NewRegistry()
	for _, spec := range setconsensus.DefaultRegistry().Specs() {
		if err := reg.Register(*spec); err != nil {
			t.Fatal(err)
		}
	}
	violators := map[string]func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool){
		"own-input": func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
			return g.Adv.Inputs[i], m == 0
		},
		"invent": func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
			if i == g.Adv.N()-1 {
				return 1000, m == 0
			}
			return g.Min(i, m), m == 1
		},
	}
	for name, rule := range violators {
		if err := reg.Register(setconsensus.ProtocolSpec{
			Name:          name,
			WorstCaseTime: func(setconsensus.Params) int { return 1 },
			New: func(setconsensus.Params) (setconsensus.Protocol, error) {
				return &sim.Func{ProtoName: name, Horizon: 1, Rule: rule}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestMultiwordSweepMatchesReference sweeps random adversaries over 70
// processes — two-word decider and correct masks — through
// Engine.SweepSource, and checks its summary against one folded from
// fresh runs verified by the set-based reference, for every protocol
// constructible at k = 1 and k = 2 plus two that violate the task.
func TestMultiwordSweepMatchesReference(t *testing.T) {
	ctx := context.Background()
	const n, tBound = 70, 3
	src, err := setconsensus.RandomSource(5, 12, setconsensus.RandomParams{N: n, T: tBound, MaxValue: 3, MaxRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := violatorRegistry(t)
	for _, k := range []int{1, 2} {
		p := setconsensus.Params{N: n, T: tBound, K: k}
		var refs []string
		horizon := 0
		for _, spec := range reg.Specs() {
			if _, err := spec.New(p); err == nil {
				refs = append(refs, spec.Name)
				horizon = max(horizon, spec.WorstCaseTime(p))
			}
		}
		eng := setconsensus.New(setconsensus.WithRegistry(reg), setconsensus.WithDegree(k),
			setconsensus.WithCrashBound(tBound), setconsensus.WithParallelism(2))
		got, err := eng.SweepSource(ctx, refs, src)
		if err != nil {
			t.Fatal(err)
		}
		want := agg.New(src.Label(), refs)
		for adv := range src.Seq() {
			g := knowledge.New(adv, horizon)
			for _, ref := range refs {
				spec, _ := reg.Lookup(ref)
				proto, _ := spec.New(p)
				res := sim.RunWithGraph(proto, g)
				o := agg.Obs{Time: res.MaxCorrectDecisionTime()}
				if o.Time >= 0 {
					o.Violation = checkref.VerifyRun(res, spec.Task(k)) != nil
				}
				if err := want.Observe(ref, o); err != nil {
					t.Fatal(err)
				}
			}
		}
		if want.Violations() == 0 {
			t.Fatalf("k=%d: the violating protocols were never flagged", k)
		}
		if g, w := setconsensus.SummaryTable(got).Render(), setconsensus.SummaryTable(want).Render(); g != w {
			t.Errorf("k=%d: engine summary\n%s\nreference summary\n%s", k, g, w)
		}
	}
}
