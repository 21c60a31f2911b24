package setconsensus_test

import (
	"testing"

	setconsensus "setconsensus"
)

func drain(t *testing.T, src setconsensus.Source) []string {
	t.Helper()
	var out []string
	for adv := range src.Seq() {
		out = append(out, adv.String())
	}
	return out
}

func TestSliceSource(t *testing.T) {
	a := setconsensus.NewBuilder(3, 0).MustBuild()
	b := setconsensus.NewBuilder(3, 1).MustBuild()
	src := setconsensus.SliceSource(a, b)
	if n, ok := src.Count(); !ok || n != 2 {
		t.Fatalf("Count = %d,%v", n, ok)
	}
	got := drain(t, src)
	if len(got) != 2 || got[0] != a.String() || got[1] != b.String() {
		t.Fatalf("stream = %v", got)
	}
	// Restartable: a second pass yields the same stream.
	if again := drain(t, src); len(again) != 2 || again[0] != got[0] {
		t.Fatal("second Seq pass differs")
	}
	if n, ok := setconsensus.SliceSource().Count(); !ok || n != 0 {
		t.Fatalf("empty slice source Count = %d,%v", n, ok)
	}
}

func TestSpaceSourceMatchesEnumeration(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 1, MaxRound: 2, Values: []int{0, 1}}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	n, known := src.Count()
	var want []string
	if err := space.ForEach(func(a *setconsensus.Adversary) bool {
		want = append(want, a.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !known || n != len(want) {
		t.Errorf("space Count() = %d, %v; want the enumeration's %d, known up front", n, known, len(want))
	}
	got := drain(t, src)
	if len(got) != len(want) {
		t.Fatalf("source yielded %d, enumeration %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diverges at %d: %s vs %s", i, got[i], want[i])
		}
	}
	if _, err := setconsensus.SpaceSource(setconsensus.Space{N: 1}); err == nil {
		t.Error("invalid space must be rejected at construction")
	}
}

func TestRandomSourceDeterministicAndRestartable(t *testing.T) {
	p := setconsensus.RandomParams{N: 5, T: 2, MaxValue: 2, MaxRound: 2}
	src, err := setconsensus.RandomSource(7, 20, p)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := src.Count(); !ok || n != 20 {
		t.Fatalf("Count = %d,%v", n, ok)
	}
	first := drain(t, src)
	second := drain(t, src)
	if len(first) != 20 {
		t.Fatalf("yielded %d adversaries", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("restarted stream diverges at %d", i)
		}
	}
	reseeded, err := setconsensus.RandomSource(8, 20, p)
	if err != nil {
		t.Fatal(err)
	}
	other := drain(t, reseeded)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
	// Invalid parameters are rejected at construction, not mid-sweep.
	for _, bad := range []setconsensus.RandomParams{
		{N: 1, T: 0, MaxValue: 1, MaxRound: 1},
		{N: 5, T: 5, MaxValue: 1, MaxRound: 1},
		{N: 5, T: 2, MaxValue: -1, MaxRound: 1},
		{N: 5, T: 2, MaxValue: 1, MaxRound: 0},
	} {
		if _, err := setconsensus.RandomSource(1, 5, bad); err == nil {
			t.Errorf("params %+v must be rejected", bad)
		}
	}
	if _, err := setconsensus.RandomSource(1, -1, p); err == nil {
		t.Error("negative count must be rejected")
	}
}

func TestLimitAndConcatSources(t *testing.T) {
	p := setconsensus.RandomParams{N: 4, T: 1, MaxValue: 1, MaxRound: 1}
	base, err := setconsensus.RandomSource(1, 10, p)
	if err != nil {
		t.Fatal(err)
	}
	limited := setconsensus.LimitSource(base, 3)
	if n, ok := limited.Count(); !ok || n != 3 {
		t.Fatalf("limited Count = %d,%v", n, ok)
	}
	if got := drain(t, limited); len(got) != 3 {
		t.Fatalf("limit yielded %d", len(got))
	}
	// Limit beyond the stream length reports the shorter count.
	if n, ok := setconsensus.LimitSource(base, 99).Count(); !ok || n != 10 {
		t.Fatalf("over-limit Count = %d,%v", n, ok)
	}
	cat := setconsensus.ConcatSources(limited, base)
	if n, ok := cat.Count(); !ok || n != 13 {
		t.Fatalf("concat Count = %d,%v", n, ok)
	}
	if got := drain(t, cat); len(got) != 13 {
		t.Fatalf("concat yielded %d", len(got))
	}
	// Unknown counts poison the sum.
	unknown := setconsensus.FuncSource("unknown", -1, base.Seq())
	if _, known := setconsensus.ConcatSources(base, unknown).Count(); known {
		t.Error("concat with an unknown-count source must report unknown")
	}
}
