package core_test

import (
	"math/bits"
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/check"
	"setconsensus/internal/check/checkref"
	"setconsensus/internal/core"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// fuzzAdversary decodes an adversary over n ≤ 8 processes with inputs
// below 8 and the protocol parameters to run it at. Byte by byte: n−2,
// the crash bound t (any 0..n−1, so the pattern may crash more than t
// and leave the protocols' context), k−1, then per process its input,
// its crash round (0: correct) and the set of processes its crash-round
// message reaches. Missing bytes read as zero; ok is false when the
// pattern does not validate.
func fuzzAdversary(data []byte) (adv *model.Adversary, p core.Params, ok bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 2 + at(0)%7
	p = core.Params{N: n, T: at(1) % n, K: 1 + at(2)%3}
	inputs := make([]model.Value, n)
	pat := model.NewFailurePattern(n)
	for i := 0; i < n; i++ {
		inputs[i] = at(3+3*i) % 8
		if round := at(4+3*i) % 4; round > 0 {
			del := bitset.New(n)
			for j, mask := 0, at(5+3*i); j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					del.Add(j)
				}
			}
			pat.SetCrash(model.Crash{Proc: i, Round: round, Delivered: del})
		}
	}
	adv = model.NewAdversary(inputs, pat)
	return adv, p, adv.Validate(-1, 7) == nil && len(pat.Crashes) < n
}

// FuzzStepRule fuzzes adversaries for the two equalities the one-pass
// run path rests on. For Optmin and u-Pmin at the decoded parameters:
// at every node ⟨i,m⟩ with i active, the step rule decides exactly what
// Decide does, and the step run equals a run asking Decide per
// candidate; and the mask-based check.VerifyRun of the step run returns
// the set-based reference's verdict, message included, for the uniform
// and the nonuniform task. A crash bound below the pattern's failure
// count leaves the protocols' context, so both verifiers also meet real
// violations.
func FuzzStepRule(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 1, 0, 1, 0, 0, 2, 2, 3, 1, 0, 0})
	f.Add([]byte{6, 3, 0, 7, 1, 1, 0, 2, 6, 3, 0, 0, 1, 1, 255, 5, 0, 0, 2, 3, 64, 4, 0, 0, 6, 1, 0})
	f.Add([]byte{1, 0, 2, 1, 3, 0, 0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		adv, p, ok := fuzzAdversary(data)
		if !ok {
			t.Skip()
		}
		for _, proto := range []sim.Protocol{core.MustOptmin(p), core.MustUPmin(p)} {
			g := knowledge.New(adv, proto.WorstCaseDecisionTime())
			step := proto.(sim.StepRule)
			n := adv.N()
			decs := make([]sim.Decision, n)
			for m := 0; m <= g.Horizon; m++ {
				cand := make([]uint64, (n+63)>>6)
				for i := 0; i < n; i++ {
					if g.Active(i, m) {
						cand[i>>6] |= 1 << uint(i&63)
					}
				}
				active := append([]uint64(nil), cand...)
				step.DecideStep(g, m, cand, decs)
				for x, word := range active {
					for ; word != 0; word &= word - 1 {
						i := x<<6 | bits.TrailingZeros64(word)
						v, ok := proto.Decide(g, i, m)
						if got := cand[x]&(1<<uint(i&63)) != 0; got != ok || ok && decs[i].Value != v {
							t.Fatalf("%s at ⟨%d,%d⟩ of %s (t=%d): step %v/%d, Decide %v/%d",
								proto.Name(), i, m, adv, p.T, got, decs[i].Value, ok, v)
						}
					}
				}
			}
			res := sim.RunWithGraph(proto, g)
			only := sim.RunWithGraph(struct{ sim.Protocol }{proto}, g)
			for i, d := range res.Decisions {
				if e := only.Decisions[i]; (d == nil) != (e == nil) || d != nil && *d != *e {
					t.Fatalf("%s on %s: step run %v, per-candidate run %v", proto.Name(), adv, res, only)
				}
			}
			for _, uniform := range []bool{false, true} {
				task := check.Task{K: p.K, Uniform: uniform}
				if got, want := check.VerifyRun(res, task), checkref.VerifyRun(res, task); !checkref.SameVerdict(got, want) {
					t.Fatalf("%s on %s, %s:\nmask      %v\nreference %v", proto.Name(), adv, task, got, want)
				}
			}
		}
	})
}
