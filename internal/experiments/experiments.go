package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"setconsensus/internal/baseline"
	"setconsensus/internal/check"
	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/topology"
	"setconsensus/internal/unbeat"
)

// E1HiddenPath reproduces Fig. 1: on the hidden-path family the observer
// of a depth-d path cannot decide before time d+1 under Opt0, while the
// chain tail (which sees the hidden 0) decides as soon as it does.
func E1HiddenPath() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Fig. 1 — hidden paths block decisions in Opt0 (n = depth+3)",
		Columns: []string{"depth", "observer decides", "chain tail decides", "value"},
		Notes: []string{
			"observer decision time = depth+1: exactly when the hidden path is exhausted",
		},
	}
	for depth := 1; depth <= 5; depth++ {
		n := depth + 3
		adv, err := model.HiddenPath(n, depth)
		if err != nil {
			return nil, err
		}
		p, err := core.NewOpt0(n, n-1)
		if err != nil {
			return nil, err
		}
		res := sim.Run(p, adv)
		tail := 1 + depth // process index of the chain tail
		t.AddRow(depth, res.DecisionTime(0), res.DecisionTime(tail), res.Decisions[0].Value)
		if res.DecisionTime(0) != depth+1 {
			return nil, fmt.Errorf("E1: observer decided at %d, want %d", res.DecisionTime(0), depth+1)
		}
	}
	return t, nil
}

// E2HiddenCapacity reproduces Fig. 2 / Lemma 2: hidden chains give the
// observer hidden capacity c, and the constructive run r′ carrying
// arbitrary values through the chains is indistinguishable at ⟨i,m⟩.
func E2HiddenCapacity() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Fig. 2 / Lemma 2 — hidden capacity and the constructed run r′",
		Columns: []string{"chains c", "depth m", "HC⟨0,m⟩", "r′ verified", "indistinguishable"},
	}
	for _, cfg := range []struct{ c, m int }{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {3, 3}} {
		n := 1 + cfg.c*(cfg.m+1) + 2
		high := make([]model.Value, cfg.c)
		for b := range high {
			high[b] = cfg.c // all chains start high; r′ injects the lows
		}
		adv, err := model.HiddenChains(n, cfg.c, cfg.m, high, cfg.c)
		if err != nil {
			return nil, err
		}
		g := knowledge.New(adv, cfg.m)
		hc := g.HiddenCapacity(0, cfg.m)
		values := make([]model.Value, cfg.c)
		for b := range values {
			values[b] = b
		}
		h, err := unbeat.HiddenRun(g, 0, cfg.m, values)
		if err != nil {
			return nil, fmt.Errorf("E2: construction (c=%d m=%d): %w", cfg.c, cfg.m, err)
		}
		_, err = h.Verify(context.Background(), g)
		t.AddRow(cfg.c, cfg.m, hc, err == nil, err == nil)
		if err != nil {
			return nil, fmt.Errorf("E2: verification (c=%d m=%d): %w", cfg.c, cfg.m, err)
		}
	}
	return t, nil
}

// E3ForcedDecisions reproduces Fig. 3 / Lemma 1 / Lemma 3: on each
// family, every node at which Optmin[k] is undecided carries a
// machine-checked cannot-decide certificate.
func E3ForcedDecisions() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Fig. 3 / Lemmas 1+3 — forcing certificates at every Optmin-undecided node",
		Columns: []string{"family", "k", "horizon", "undecided nodes", "certified"},
	}
	type fam struct {
		name string
		adv  *model.Adversary
		k, m int
	}
	var fams []fam
	hp, err := model.HiddenPath(6, 2)
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"hidden-path", hp, 1, 2})
	hc2, err := model.HiddenChains(10, 2, 2, []model.Value{2, 2}, 2)
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"hidden-chains", hc2, 2, 2})
	col, err := model.Collapse(model.CollapseParams{K: 2, R: 2, ExtraCorrect: 3})
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"collapse", col, 2, 2})

	for _, f := range fams {
		g := knowledge.New(f.adv, f.m)
		undecided, certified := 0, 0
		for i := 0; i < f.adv.N(); i++ {
			for m := 0; m <= f.m; m++ {
				if !f.adv.Pattern.Active(i, m) {
					continue
				}
				if g.Min(i, m) < f.k || g.HiddenCapacity(i, m) < f.k {
					continue
				}
				undecided++
				if _, err := unbeat.CannotDecide(context.Background(), g, i, m, f.k); err == nil {
					certified++
				}
			}
		}
		t.AddRow(f.name, f.k, f.m, undecided, certified)
		if certified != undecided {
			return nil, fmt.Errorf("E3: %s: %d/%d certified", f.name, certified, undecided)
		}
	}
	return t, nil
}

// E4Separation reproduces Fig. 4 and the §5 headline: on the collapse
// family, u-Pmin[k] decides at time 2 (3 in the low variant) while every
// literature protocol needs ⌊t/k⌋+1.
func E4Separation() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Fig. 4 — u-Pmin decides at 2; all known protocols need ⌊t/k⌋+1",
		Columns: []string{"k", "t", "variant", "u-Pmin", "Optmin", "FloodMin", "u-EarlyCount", "u-PerRound", "⌊t/k⌋+1"},
	}
	for _, cfg := range []struct {
		k, r int
		low  bool
	}{
		{2, 2, false}, {2, 4, false}, {3, 3, false}, {3, 7, false}, {3, 19, false},
		{2, 2, true}, {3, 7, true},
	} {
		cp := model.CollapseParams{K: cfg.k, R: cfg.r, ExtraCorrect: cfg.k + 2, LowVariant: cfg.low}
		adv, err := model.Collapse(cp)
		if err != nil {
			return nil, err
		}
		tb := model.CollapseT(cp)
		params := core.Params{N: adv.N(), T: tb, K: cfg.k}
		variant := "all-high"
		if cfg.low {
			variant = "low"
		}
		// One knowledge graph serves all five protocols: they share the
		// worst-case horizon ⌊t/k⌋+1.
		g := knowledge.New(adv, params.T/params.K+1)
		upmin := sim.RunWithGraph(core.MustUPmin(params), g).MaxCorrectDecisionTime()
		optmin := sim.RunWithGraph(core.MustOptmin(params), g).MaxCorrectDecisionTime()
		flood := sim.RunWithGraph(baseline.Must(baseline.FloodMin, params), g).MaxCorrectDecisionTime()
		uec := sim.RunWithGraph(baseline.Must(baseline.UEarlyCount, params), g).MaxCorrectDecisionTime()
		upr := sim.RunWithGraph(baseline.Must(baseline.UPerRound, params), g).MaxCorrectDecisionTime()
		t.AddRow(cfg.k, tb, variant, upmin, optmin, flood, uec, upr, tb/cfg.k+1)

		wantU := 2
		if cfg.low {
			wantU = 3
		}
		if upmin != wantU {
			return nil, fmt.Errorf("E4: u-Pmin decided at %d, want %d (k=%d t=%d)", upmin, wantU, cfg.k, tb)
		}
		if flood != tb/cfg.k+1 || uec != tb/cfg.k+1 {
			return nil, fmt.Errorf("E4: baselines decided early (flood=%d uec=%d)", flood, uec)
		}
	}
	t.Notes = append(t.Notes,
		"the margin ⌊t/k⌋+1 vs 2 grows without bound in t — 'beats by a large margin' (§5)")
	return t, nil
}

// E5Sperner reproduces Fig. 5 / Lemma 4: the paper's subdivision Div σ,
// Sperner colorings, and the odd fully-colored count, for k = 1..3, with
// randomized colorings.
func E5Sperner() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Fig. 5 / Lemma 4 — Div σ and Sperner's lemma",
		Columns: []string{"k", "vertices", "top simplices", "canonical count", "random colorings", "all odd"},
	}
	rng := rand.New(rand.NewSource(99))
	for k := 1; k <= 3; k++ {
		s, err := topology.DivK(k)
		if err != nil {
			return nil, err
		}
		if err := s.CheckSubdivision(); err != nil {
			return nil, err
		}
		canonical, err := s.SpernerCount(s.CanonicalColoring())
		if err != nil {
			return nil, err
		}
		trials := 500
		allOdd := true
		for i := 0; i < trials; i++ {
			n, err := s.SpernerCount(s.RandomColoring(rng))
			if err != nil {
				return nil, err
			}
			if n%2 == 0 {
				allOdd = false
			}
		}
		t.AddRow(k, len(s.Complex.Vertices()), len(s.Complex.Simplices(k)), canonical, trials, allOdd)
		if !allOdd || canonical%2 == 0 {
			return nil, fmt.Errorf("E5: even Sperner count at k=%d", k)
		}
	}
	t.Notes = append(t.Notes,
		"the B.1.2 proof maps Div σ into the star complex of ⟨i,m⟩; a fully colored simplex is a k-Agreement violation")
	return t, nil
}

// E6Bounds reproduces Proposition 1 and Theorem 3: decision-time bounds
// over random sweeps plus the exact-tightness family.
func E6Bounds() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Prop. 1 / Thm. 3 — decision-time bounds (500 seeded random adversaries per row)",
		Columns: []string{"n", "k", "t", "max Optmin", "max ⌊f/k⌋+1 bound", "max u-Pmin", "max min{⌊t/k⌋+1,⌊f/k⌋+2}", "violations"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ n, k, tb int }{{5, 1, 3}, {6, 2, 4}, {7, 3, 5}, {8, 2, 6}} {
		params := core.Params{N: cfg.n, T: cfg.tb, K: cfg.k}
		maxOpt, maxOptBound, maxU, maxUBound, violations := 0, 0, 0, 0, 0
		smp := model.NewSampler(rng, model.RandomParams{N: cfg.n, T: cfg.tb, MaxValue: cfg.k, MaxRound: cfg.tb})
		for trial := 0; trial < 500; trial++ {
			adv := smp.Next()
			f := adv.Pattern.NumFailures()
			g := knowledge.New(adv, params.T/params.K+1)
			oRes := sim.RunWithGraph(core.MustOptmin(params), g)
			uRes := sim.RunWithGraph(core.MustUPmin(params), g)
			oT, uT := oRes.MaxCorrectDecisionTime(), uRes.MaxCorrectDecisionTime()
			oB, uB := f/cfg.k+1, min(cfg.tb/cfg.k+1, f/cfg.k+2)
			if oT > maxOpt {
				maxOpt = oT
			}
			if oB > maxOptBound {
				maxOptBound = oB
			}
			if uT > maxU {
				maxU = uT
			}
			if uB > maxUBound {
				maxUBound = uB
			}
			if oT > oB || uT > uB || oT < 0 || uT < 0 {
				violations++
			}
		}
		t.AddRow(cfg.n, cfg.k, cfg.tb, maxOpt, maxOptBound, maxU, maxUBound, violations)
		if violations > 0 {
			return nil, fmt.Errorf("E6: %d bound violations at n=%d k=%d", violations, cfg.n, cfg.k)
		}
	}
	// Tightness rows: the silent-rounds family meets the bound exactly.
	for _, cfg := range []struct{ k, r int }{{1, 3}, {2, 3}, {3, 2}} {
		adv, err := model.SilentRounds(cfg.k, cfg.r, cfg.k+1)
		if err != nil {
			return nil, err
		}
		f := adv.Pattern.NumFailures()
		params := core.Params{N: adv.N(), T: f, K: cfg.k}
		oT := sim.Run(core.MustOptmin(params), adv).MaxCorrectDecisionTime()
		uT := sim.Run(core.MustUPmin(params), adv).MaxCorrectDecisionTime()
		t.AddRow(adv.N(), cfg.k, f, oT, f/cfg.k+1, uT, min(f/cfg.k+1, f/cfg.k+2), 0)
		if oT != f/cfg.k+1 {
			return nil, fmt.Errorf("E6: tightness broken: Optmin at %d, want %d", oT, f/cfg.k+1)
		}
	}
	t.Notes = append(t.Notes, "last three rows: SilentRounds family — the bounds are met with equality")
	return t, nil
}

var _ = check.Task{} // keep the import local to this file's siblings
var _ = enum.Space{}
