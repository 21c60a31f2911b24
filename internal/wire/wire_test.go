package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

func TestCodecRoundTrip(t *testing.T) {
	facts := []Fact{
		{Kind: FactValue, Proc: 3, Arg: 2},
		{Kind: FactMyMiss, Proc: 1, Arg: 4},
		{Kind: FactCrash, Proc: 1, Arg: 3},
		{Kind: FactSeen, Proc: 5, Arg: 2},
	}
	got, err := Decode(Encode(facts), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, facts) {
		t.Fatalf("round trip: %v != %v", got, facts)
	}
	// Alive heartbeat: one byte.
	if b := Encode(nil); len(b) != 1 {
		t.Fatalf("alive message is %d bytes, want 1", len(b))
	}
	alive, err := Decode(Encode(nil), 1)
	if err != nil || len(alive) != 0 {
		t.Fatalf("alive decode: %v, %v", alive, err)
	}
}

// TestDecodeRejects feeds Decode bundles it must refuse, each with an
// error: among them a count no remaining bytes can hold, which Decode
// must not size a slice by, and facts that State.Deliver would index
// its per-process tables with out of range.
func TestDecodeRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
		n    int
	}{
		{"empty", nil, 4},
		{"truncated count", []byte{0x80}, 4},
		{"count without facts", []byte{0x05}, 4},
		{"truncated fact", []byte{0x01, byte(FactValue), 0x01, 0x80}, 4},
		{"trailing bytes", append(Encode(nil), 0x01), 4},
		{"count of 2^40 in 6 bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, 4},
		{"kind 0", []byte{0x01, 0x00, 0x01, 0x00}, 4},
		{"kind past FactSeen", []byte{0x01, byte(FactSeen) + 1, 0x01, 0x00}, 4},
		{"process 99 of 4", Encode([]Fact{{Kind: FactValue, Proc: 99, Arg: 0}}), 4},
		{"process n of n", Encode([]Fact{{Kind: FactSeen, Proc: 4, Arg: 1}}), 4},
	} {
		if facts, err := Decode(c.b, c.n); err == nil {
			t.Errorf("%s: Decode(% x, %d) accepted %v", c.name, c.b, c.n, facts)
		}
	}
}

// FuzzDecode: no bytes may panic Decode, for any run of 1..64
// processes, and an accepted bundle holds at most one fact per three
// bytes, each of a known kind and about a process in 0..n−1, and decodes
// again from its encoding to the same facts.
func FuzzDecode(f *testing.F) {
	f.Add(Encode([]Fact{{Kind: FactValue, Proc: 3, Arg: 2}, {Kind: FactSeen, Proc: 1, Arg: 4}}), 6)
	f.Add(Encode(nil), 1)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, 4)
	f.Add(Encode([]Fact{{Kind: FactValue, Proc: 99, Arg: 0}}), 4)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		n = 1 + (n%64+64)%64
		facts, err := Decode(b, n)
		if err != nil {
			return
		}
		if len(facts) > len(b)/3 {
			t.Fatalf("%d facts accepted from %d bytes", len(facts), len(b))
		}
		for _, fact := range facts {
			if fact.Kind < FactValue || fact.Kind > FactSeen || fact.Proc < 0 || fact.Proc >= n {
				t.Fatalf("accepted fact %v in a run of %d processes", fact, n)
			}
		}
		again, err := Decode(Encode(facts), n)
		if err != nil || !reflect.DeepEqual(again, facts) {
			t.Fatalf("re-encoded %v decodes to %v, %v", facts, again, err)
		}
	})
}

func TestFactStrings(t *testing.T) {
	for f, want := range map[Fact]string{
		{Kind: FactValue, Proc: 3, Arg: 2}:  "value(3)=2",
		{Kind: FactMyMiss, Proc: 1, Arg: 4}: "myMiss(1)=r4",
		{Kind: FactCrash, Proc: 1, Arg: 3}:  "crash(1)≤r3",
		{Kind: FactSeen, Proc: 5, Arg: 2}:   "seen(5)=2",
	} {
		if got := f.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// stateMatchesOracle compares every reconstructed quantity at ⟨i,m⟩ with
// the full-information oracle.
func stateMatchesOracle(t *testing.T, g *knowledge.Graph, st *State, i model.Proc, m, k int) {
	t.Helper()
	adv := g.Adv
	if got, want := st.Min(), g.Min(i, m); got != want {
		t.Fatalf("⟨%d,%d⟩ Min: wire %d oracle %d (%s)", i, m, got, want, adv)
	}
	if got, want := st.HiddenCapacity(), g.HiddenCapacity(i, m); got != want {
		t.Fatalf("⟨%d,%d⟩ HC: wire %d oracle %d (%s)", i, m, got, want, adv)
	}
	if got, want := st.FailuresKnown(), g.FailuresKnown(i, m); got != want {
		t.Fatalf("⟨%d,%d⟩ failures: wire %d oracle %d (%s)", i, m, got, want, adv)
	}
	for j := 0; j < adv.N(); j++ {
		if got, want := st.LastSeen(j), g.LastSeen(i, m, j); got != want {
			t.Fatalf("⟨%d,%d⟩ lastSeen(%d): wire %d oracle %d (%s)", i, m, j, got, want, adv)
		}
		if got, want := st.KnownCrashRound(j), g.KnownCrashRound(i, m, j); got != want {
			t.Fatalf("⟨%d,%d⟩ crashRound(%d): wire %d oracle %d (%s)", i, m, j, got, want, adv)
		}
		for l := 0; l <= m; l++ {
			if got, want := st.Hidden(j, l), g.Hidden(i, m, j, l); got != want {
				t.Fatalf("⟨%d,%d⟩ hidden(%d,%d): wire %v oracle %v (%s)", i, m, j, l, got, want, adv)
			}
		}
	}
	gv := g.Vals(i, m)
	wv := st.Vals()
	if len(wv) != gv.Count() {
		t.Fatalf("⟨%d,%d⟩ Vals: wire %v oracle %s (%s)", i, m, wv, gv, adv)
	}
	for _, v := range wv {
		if !gv.Contains(v) {
			t.Fatalf("⟨%d,%d⟩ Vals: wire has %d, oracle %s (%s)", i, m, v, gv, adv)
		}
	}
	_ = k
}

func checkEquivalence(t *testing.T, adv *model.Adversary, p core.Params) {
	t.Helper()
	g := knowledge.New(adv, p.T/p.K+1)
	hook := func(m int, states []*State) {
		for i := 0; i < adv.N(); i++ {
			if adv.Pattern.Active(i, m) {
				stateMatchesOracle(t, g, states[i], i, m, p.K)
			}
		}
	}
	res, err := RunHooked(RuleOptmin, p, adv, new(sim.Scratch), hook)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sim.RunWithGraph(core.MustOptmin(p), g)
	compareDecisions(t, adv, res, oracle, "Optmin")

	uRes, err := Run(RuleUPmin, p, adv, new(sim.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	uOracle := sim.RunWithGraph(core.MustUPmin(p), g)
	compareDecisions(t, adv, uRes, uOracle, "u-Pmin")
}

func compareDecisions(t *testing.T, adv *model.Adversary, w *Result, o *sim.Result, label string) {
	t.Helper()
	for i := 0; i < adv.N(); i++ {
		wd, od := w.Decisions[i], o.Decisions[i]
		switch {
		case wd == nil && od == nil:
		case wd == nil || od == nil:
			t.Fatalf("%s process %d: wire %+v oracle %+v (%s)", label, i, wd, od, adv)
		case wd.Value != od.Value || wd.Time != od.Time:
			t.Fatalf("%s process %d: wire %d@%d oracle %d@%d (%s)",
				label, i, wd.Value, wd.Time, od.Value, od.Time, adv)
		}
	}
}

// TestWireEquivalenceExhaustive: Lemma 6's "identical decision times",
// checked at every node of every canonical adversary of a small space —
// including the full knowledge reconstruction, not just decisions.
func TestWireEquivalenceExhaustive(t *testing.T) {
	p := core.Params{N: 4, T: 2, K: 1}
	space := enum.Space{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	count := 0
	err := space.ForEach(func(adv *model.Adversary) bool {
		checkEquivalence(t, adv, p)
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("verified wire/oracle equivalence on %d adversaries", count)
}

func TestWireEquivalenceExhaustiveK2(t *testing.T) {
	p := core.Params{N: 4, T: 2, K: 2}
	space := enum.Space{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 2}}
	err := space.ForEach(func(adv *model.Adversary) bool {
		checkEquivalence(t, adv, p)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWireEquivalenceRandom stresses deeper runs (more rounds, more
// processes, k up to 3) on random adversaries.
func TestWireEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 250; trial++ {
		k := 1 + rng.Intn(3)
		n := 5 + rng.Intn(3)
		tB := min(4, n-1)
		adv := model.Random(rng, model.RandomParams{N: n, T: tB, MaxValue: k, MaxRound: 3})
		checkEquivalence(t, adv, core.Params{N: n, T: tB, K: k})
	}
}

func TestWireEquivalenceFamilies(t *testing.T) {
	col, err := model.Collapse(model.CollapseParams{K: 3, R: 3, ExtraCorrect: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, col, core.Params{N: col.N(), T: model.CollapseT(model.CollapseParams{K: 3, R: 3, ExtraCorrect: 4}), K: 3})

	sil, err := model.SilentRounds(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, sil, core.Params{N: sil.N(), T: 6, K: 2})

	hp, err := model.HiddenPath(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, hp, core.Params{N: 6, T: 4, K: 1})
}

// TestWireBitsBound: Lemma 6's O(n log n) bits per ordered pair. We assert
// the concrete budget: each sender emits ≤ n value facts, ≤ n myMiss
// facts, ≤ 2n crash facts, ≤ 2n seen facts and ≤ t+2 heartbeats, each
// fact ≤ 3·(varint ≤ 5 bytes): comfortably under C·n·log₂(n) bits with
// C = 64.
func TestWireBitsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		tB := n - 1
		k := 1 + rng.Intn(2)
		adv := model.Random(rng, model.RandomParams{N: n, T: tB, MaxValue: k, MaxRound: 3})
		res, err := Run(RuleOptmin, core.Params{N: n, T: tB, K: k}, adv, new(sim.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		bound := int(64 * float64(n) * math.Log2(float64(n)))
		if got := res.MaxPairBits(); got > bound {
			t.Fatalf("n=%d: max pair bits %d > %d (%s)", n, got, bound, adv)
		}
	}
}

// TestWireBitsScaling reports the growth of the per-pair maximum with n
// on the worst-case silent-rounds family (for EXPERIMENTS.md E10).
func TestWireBitsScaling(t *testing.T) {
	prevRatio := 0.0
	for _, rounds := range []int{2, 4, 6, 8} {
		adv, err := model.SilentRounds(2, rounds, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := adv.N()
		res, err := Run(RuleOptmin, core.Params{N: n, T: 2 * rounds, K: 2}, adv, new(sim.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.MaxPairBits()) / (float64(n) * math.Log2(float64(n)))
		t.Logf("n=%2d: max pair bits %5d, ratio to n·log n = %.2f", n, res.MaxPairBits(), ratio)
		if prevRatio > 0 && ratio > prevRatio*3 {
			t.Errorf("super-n·log n growth: ratio %f after %f", ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestRunValidation(t *testing.T) {
	adv := model.NewBuilder(3, 0).MustBuild()
	var sc sim.Scratch
	if _, err := Run(RuleOptmin, core.Params{N: 4, T: 1, K: 1}, adv, &sc); err == nil {
		t.Error("mismatched n must error")
	}
	if _, err := Run(RuleOptmin, core.Params{N: 3, T: 5, K: 1}, adv, &sc); err == nil {
		t.Error("invalid params must error")
	}
}

func BenchmarkWireCollapse(b *testing.B) {
	p := model.CollapseParams{K: 3, R: 5, ExtraCorrect: 4}
	adv, err := model.Collapse(p)
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{N: adv.N(), T: model.CollapseT(p), K: 3}
	var sc sim.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(RuleOptmin, params, adv, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
