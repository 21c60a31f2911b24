package runtime

import (
	"math/rand"
	"strings"
	"testing"

	"setconsensus/internal/core"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/wire"
)

func checkAgainstOracle(t *testing.T, rule wire.Rule, p core.Params, adv *model.Adversary) {
	t.Helper()
	decs, err := Run(rule, p, adv, new(sim.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	var oracle *sim.Result
	if rule == wire.RuleOptmin {
		oracle = sim.Run(core.MustOptmin(p), adv)
	} else {
		oracle = sim.Run(core.MustUPmin(p), adv)
	}
	for i := 0; i < adv.N(); i++ {
		ed, od := decs[i], oracle.Decisions[i]
		switch {
		case ed == nil && od == nil:
		case ed == nil || od == nil:
			t.Fatalf("process %d: engine %+v oracle %+v (%s)", i, ed, od, adv)
		case ed.Value != od.Value || ed.Time != od.Time:
			t.Fatalf("process %d: engine %d@%d oracle %d@%d (%s)",
				i, ed.Value, ed.Time, od.Value, od.Time, adv)
		}
	}
}

func TestEngineMatchesOracleFailureFree(t *testing.T) {
	adv := model.NewBuilder(5, 2).Input(0, 1).MustBuild()
	checkAgainstOracle(t, wire.RuleOptmin, core.Params{N: 5, T: 2, K: 2}, adv)
	checkAgainstOracle(t, wire.RuleUPmin, core.Params{N: 5, T: 2, K: 2}, adv)
}

func TestEngineMatchesOracleFamilies(t *testing.T) {
	cp := model.CollapseParams{K: 2, R: 3, ExtraCorrect: 3}
	col, err := model.Collapse(cp)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{N: col.N(), T: model.CollapseT(cp), K: 2}
	checkAgainstOracle(t, wire.RuleOptmin, p, col)
	checkAgainstOracle(t, wire.RuleUPmin, p, col)

	hp, err := model.HiddenPath(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, wire.RuleOptmin, core.Params{N: 6, T: 4, K: 1}, hp)
	checkAgainstOracle(t, wire.RuleUPmin, core.Params{N: 6, T: 4, K: 1}, hp)
}

func TestEngineMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(2)
		adv := model.Random(rng, model.RandomParams{N: 6, T: 4, MaxValue: k, MaxRound: 3})
		p := core.Params{N: 6, T: 4, K: k}
		checkAgainstOracle(t, wire.RuleOptmin, p, adv)
		checkAgainstOracle(t, wire.RuleUPmin, p, adv)
	}
}

func TestEngineValidation(t *testing.T) {
	adv := model.NewBuilder(3, 0).MustBuild()
	var sc sim.Scratch
	if _, err := Run(wire.RuleOptmin, core.Params{N: 5, T: 1, K: 1}, adv, &sc); err == nil {
		t.Error("mismatched n must error")
	}
	if _, err := Run(wire.RuleOptmin, core.Params{N: 3, T: 9, K: 1}, adv, &sc); err == nil {
		t.Error("invalid params must error")
	}
}

func TestEngineDeterministic(t *testing.T) {
	adv := model.Random(rand.New(rand.NewSource(5)), model.RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 2})
	p := core.Params{N: 6, T: 3, K: 2}
	var sa, sb sim.Scratch
	a, err := Run(wire.RuleOptmin, p, adv, &sa)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		b, err := Run(wire.RuleOptmin, p, adv, &sb)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			da, db := a[i], b[i]
			if (da == nil) != (db == nil) || (da != nil && *da != *db) {
				t.Fatalf("nondeterministic engine at process %d", i)
			}
		}
	}
}

func BenchmarkEngineCollapse(b *testing.B) {
	cp := model.CollapseParams{K: 3, R: 4, ExtraCorrect: 4}
	adv, err := model.Collapse(cp)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{N: adv.N(), T: model.CollapseT(cp), K: 3}
	var sc sim.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wire.RuleOptmin, p, adv, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineCorruptPayloadError sends payloads wire.Decode must reject:
// a count of 1 with no fact triples, and a well-formed fact about
// process 99 of 4, which Deliver would index the receiver's
// per-process tables with, out of range inside its goroutine, where no
// caller could recover it. Each must fail the run with the
// corrupt-payload error.
func TestEngineCorruptPayloadError(t *testing.T) {
	defer func() { encodePayload = wire.Encode }()
	adv := model.NewBuilder(4, 1).Input(0, 0).MustBuild()
	for name, payload := range map[string][]byte{
		"truncated":       {1},
		"process 99 of 4": wire.Encode([]wire.Fact{{Kind: wire.FactValue, Proc: 99, Arg: 0}}),
	} {
		encodePayload = func([]wire.Fact) []byte { return payload }
		decs, err := Run(wire.RuleOptmin, core.Params{N: 4, T: 2, K: 1}, adv, new(sim.Scratch))
		if err == nil {
			t.Fatalf("%s: a corrupt payload must surface as an error, got decisions %v", name, decs)
		}
		if !strings.Contains(err.Error(), "corrupt payload") {
			t.Fatalf("%s: unexpected error: %v", name, err)
		}
	}
}
