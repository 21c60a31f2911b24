package check_test

import (
	"math/rand"
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/check"
	"setconsensus/internal/check/checkref"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// TestScratchVerifyMatchesVerifyRun drives one reused Scratch, the
// allocating VerifyRun and the set-based reference over randomized runs
// — including deliberately broken ones — and requires verdict-for-verdict
// agreement, with and without the run's decider mask. A stale scratch
// set leaking state between runs diverges here.
func TestScratchVerifyMatchesVerifyRun(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var sc check.Scratch
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(3)
		inputs := make([]model.Value, n)
		for i := range inputs {
			inputs[i] = rng.Intn(3)
		}
		pat := model.NewFailurePattern(n)
		if rng.Intn(2) == 0 {
			pat.SetCrash(model.Crash{Proc: rng.Intn(n), Round: 1 + rng.Intn(2), Delivered: bitset.New(n)})
		}
		adv := model.NewAdversary(inputs, pat)
		// A deliberately unreliable rule: sometimes undecided, sometimes
		// inventing values outside the inputs, sometimes spreading more
		// values than any k admits.
		mode := rng.Intn(3)
		p := &sim.Func{
			ProtoName: "chaotic",
			Horizon:   2,
			Rule: func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
				switch mode {
				case 0:
					return g.Min(i, m), m == 1
				case 1:
					return 7, m == 1 // 7 ∉ inputs: validity violation
				default:
					return g.Adv.Inputs[i], m == 0 && i != 0 // process 0 never decides
				}
			},
		}
		res := sim.Run(p, adv)
		bare := &sim.Result{ProtocolName: res.ProtocolName, Adv: res.Adv, Decisions: res.Decisions}
		for _, task := range []check.Task{{K: 1}, {K: 2}, {K: 1, Uniform: true}, {K: 2, Uniform: true}} {
			want := checkref.VerifyRun(res, task)
			for _, r := range []*sim.Result{res, bare} {
				for _, got := range []error{sc.VerifyRun(r, task), check.VerifyRun(r, task)} {
					if !checkref.SameVerdict(got, want) {
						t.Fatalf("trial %d task %s (mask %v): got %v, reference %v", trial, task, r.Deciders != nil, got, want)
					}
				}
			}
		}
	}
}

// TestScratchVerifyAllocationFree pins the whole point of the scratch:
// verifying a satisfied run allocates nothing once the sets are warm.
func TestScratchVerifyAllocationFree(t *testing.T) {
	adv := model.NewBuilder(4, 1).Inputs(0, 1, 1, 0).MustBuild()
	p := &sim.Func{
		ProtoName: "min@1",
		Horizon:   1,
		Rule: func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
			return g.Min(i, m), m == 1
		},
	}
	res := sim.Run(p, adv)
	var sc check.Scratch
	task := check.Task{K: 1}
	if err := sc.VerifyRun(res, task); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := sc.VerifyRun(res, task); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("scratch verify allocated %.1f objects per run, want 0", avg)
	}
}
