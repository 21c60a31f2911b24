package unbeat

import (
	"fmt"

	"setconsensus/internal/bitset"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// searchRun is one adversary's compiled form in the reference search:
// per process, the interned view id at each active time up to the base
// protocol's decision, plus the base decision itself. The pipeline keeps
// the same facts in its struct-of-arrays run table instead.
type searchRun struct {
	adv      *model.Adversary
	seq      [][]int // seq[i][m] = view id, m ≤ decision time (or last active)
	decTime  []int   // base decision time, −1 if none
	decValue []model.Value
	correct  []bool
	present  *bitset.Set // values present in the input vector
}

// referenceSearch is the pre-pipeline deviation search, kept verbatim as
// the behavioral reference for the staged implementation (the same
// arrangement internal/knowledge uses for its arena rewrite): a single
// sequential pass that allocates a deviation map per candidate and a
// decided-value bitset per (candidate, run), and keeps every run's
// adversary. It is test-only: equivalence tests pin the pipeline's
// verdicts and counters against it, and the benchmark pair
// BenchmarkSearchPipeline / BenchmarkSearchReference measures what the
// staged, scratch-based rework buys. Counters follow the pipeline's
// beaten-case convention (canonical prefix through the winner) so
// reports compare field for field; the witness is typed the same way.
func referenceSearch(base sim.Protocol, p SearchParams) (*SearchReport, error) {
	if p.Width < 1 || p.Width > 2 {
		return nil, fmt.Errorf("unbeat: search width must be 1 or 2, got %d", p.Width)
	}
	ids := map[string]int{}
	var viewVals []*bitset.Set // per view id: Vals of the view
	var viewPre []bool         // ever occurs strictly before a base decision
	var runs []*searchRun

	horizon := p.T/p.K + 1
	builder := knowledge.NewBuilder()
	err := p.Space.ForEach(func(adv *model.Adversary) bool {
		g := builder.Build(adv, horizon)
		defer g.Release()
		res := sim.RunWithGraph(base, g)
		sr := &searchRun{
			adv:      adv,
			seq:      make([][]int, adv.N()),
			decTime:  make([]int, adv.N()),
			decValue: make([]model.Value, adv.N()),
			correct:  make([]bool, adv.N()),
			present:  &bitset.Set{},
		}
		for _, v := range adv.Inputs {
			sr.present.Add(v)
		}
		for i := 0; i < adv.N(); i++ {
			sr.correct[i] = adv.Pattern.Correct(i)
			sr.decTime[i] = res.DecisionTime(i)
			if d := res.Decisions[i]; d != nil {
				sr.decValue[i] = d.Value
			}
			last := sr.decTime[i]
			if last < 0 {
				last = adv.Pattern.CrashRound(i) - 1
				if last > horizon {
					last = horizon
				}
			}
			for m := 0; m <= last; m++ {
				fp := g.Fingerprint(i, m)
				id, ok := ids[fp]
				if !ok {
					id = len(viewVals)
					ids[fp] = id
					viewVals = append(viewVals, g.Vals(i, m))
					viewPre = append(viewPre, false)
				}
				if m < sr.decTime[i] || sr.decTime[i] < 0 {
					viewPre[id] = true
				}
				sr.seq[i] = append(sr.seq[i], id)
			}
		}
		runs = append(runs, sr)
		return true
	})
	if err != nil {
		return nil, err
	}

	var devs []Deviation
	for id, pre := range viewPre {
		if !pre {
			continue
		}
		viewVals[id].ForEach(func(v int) bool {
			devs = append(devs, Deviation{View: id, Value: v})
			return true
		})
	}
	report := &SearchReport{Runs: len(runs), Views: len(devs)}

	// The seed's map-keyed candidate simulation: one map per candidate,
	// one bitset per (candidate, run).
	violates := func(dv map[int]model.Value, sr *searchRun) (bool, bool) {
		decided := &bitset.Set{}
		strict := false
		undecidedCorrect := false
		for i := range sr.seq {
			dTime, dVal := sr.decTime[i], sr.decValue[i]
			final := dTime
			finalVal := dVal
			for m, id := range sr.seq[i] {
				if v, hit := dv[id]; hit {
					final, finalVal = m, v
					if dTime < 0 || m < dTime {
						strict = true
					}
					break
				}
			}
			if final < 0 {
				if sr.correct[i] {
					undecidedCorrect = true
				}
				continue
			}
			if !sr.present.Contains(finalVal) {
				return true, strict // Validity broken
			}
			if p.Uniform || sr.correct[i] {
				decided.Add(finalVal)
			}
		}
		if undecidedCorrect {
			return true, strict // Decision broken
		}
		return decided.Count() > p.K, strict
	}
	testCandidate := func(dv map[int]model.Value) bool {
		strictAnywhere := false
		for _, sr := range runs {
			bad, strict := violates(dv, sr)
			if bad {
				return false
			}
			strictAnywhere = strictAnywhere || strict
		}
		return strictAnywhere
	}
	witness := func(ds []Deviation) *Witness {
		w := &Witness{Deviations: append([]Deviation(nil), ds...)}
		dv := map[int]model.Value{}
		for _, d := range ds {
			dv[d.View] = d.Value
		}
		for _, sr := range runs {
			if _, strict := violates(dv, sr); strict {
				w.AdvFingerprint = advFingerprintHex(sr.adv)
				w.Adversary = sr.adv.String()
				break
			}
		}
		return w
	}

	// Width 1.
	singleViolated := make([]*bitset.Set, len(devs))
	for di, d := range devs {
		dv := map[int]model.Value{d.View: d.Value}
		vio := &bitset.Set{}
		strictAnywhere := false
		for ri, sr := range runs {
			bad, strict := violates(dv, sr)
			if bad {
				vio.Add(ri)
			}
			strictAnywhere = strictAnywhere || strict
		}
		singleViolated[di] = vio
		if vio.Empty() && strictAnywhere {
			report.Beaten = true
			report.Candidates = di + 1
			report.Witness = witness(devs[di : di+1])
			return report, nil
		}
	}
	report.Candidates = len(devs)
	if p.Width == 1 {
		return report, nil
	}

	// Width 2 with the locality prune.
	occurs := make([]*bitset.Set, len(viewVals))
	for i := range occurs {
		occurs[i] = &bitset.Set{}
	}
	for ri, sr := range runs {
		for _, row := range sr.seq {
			for _, id := range row {
				occurs[id].Add(ri)
			}
		}
	}
	for ai := 0; ai < len(devs); ai++ {
		for bi := ai + 1; bi < len(devs); bi++ {
			if devs[ai].View == devs[bi].View {
				continue // one decision per view
			}
			if !singleViolated[ai].SubsetOf(occurs[devs[bi].View]) ||
				!singleViolated[bi].SubsetOf(occurs[devs[ai].View]) {
				report.PairsPruned++
				continue
			}
			report.PairsTested++
			dv := map[int]model.Value{devs[ai].View: devs[ai].Value, devs[bi].View: devs[bi].Value}
			if testCandidate(dv) {
				report.Beaten = true
				report.Candidates = len(devs) + report.PairsTested
				report.Witness = witness([]Deviation{devs[ai], devs[bi]})
				return report, nil
			}
		}
	}
	report.Candidates = len(devs) + report.PairsTested
	return report, nil
}
