package enum

import (
	"testing"

	"setconsensus/internal/model"
)

func TestValidate(t *testing.T) {
	good := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Space{
		{N: 1, T: 0, MaxRound: 1, Values: []model.Value{0}},
		{N: 3, T: 3, MaxRound: 1, Values: []model.Value{0}},
		{N: 3, T: 1, MaxRound: 0, Values: []model.Value{0}},
		{N: 3, T: 1, MaxRound: 1, Values: nil},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("space %+v must be invalid", bad)
		}
	}
	if err := (Space{N: 1}).ForEach(func(*model.Adversary) bool { return true }); err == nil {
		t.Error("ForEach must propagate validation errors")
	}
}

func TestNoFailureSpace(t *testing.T) {
	s := Space{N: 2, T: 0, MaxRound: 1, Values: []model.Value{0, 1}}
	advs, err := s.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	// One (empty) pattern × 4 input vectors.
	if len(advs) != 4 {
		t.Fatalf("got %d adversaries, want 4", len(advs))
	}
	for _, a := range advs {
		if a.Pattern.NumFailures() != 0 {
			t.Error("T=0 space produced a crash")
		}
	}
}

func TestSingleCrasherCount(t *testing.T) {
	// N=2, T=1, MaxRound=1, one value: patterns are the empty one plus,
	// for each process, crash in round 1 delivering to the other or not:
	// canonically 1 + 2·2 = 5.
	s := Space{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}}
	advs, err := s.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 5 {
		for _, a := range advs {
			t.Log(a)
		}
		t.Fatalf("got %d adversaries, want 5", len(advs))
	}
}

func TestCanonicalizationDedups(t *testing.T) {
	// N=3, T=2, rounds ≤ 2: a round-1 crasher delivering to another
	// round-1 crasher is indistinguishable from not delivering — the
	// enumeration must not produce both.
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0}}
	seen := map[string]int{}
	err := s.ForEach(func(a *model.Adversary) bool {
		seen[a.Pattern.String()]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range seen {
		if c > 1 {
			t.Errorf("pattern %s produced %d times", k, c)
		}
	}
	// Spot-check: a crash-round delivery to a dead receiver never appears.
	for k := range seen {
		_ = k
	}
	err = s.ForEach(func(a *model.Adversary) bool {
		for p, c := range a.Pattern.Crashes {
			c.Delivered.ForEach(func(q int) bool {
				if !a.Pattern.Active(q, c.Round) {
					t.Errorf("pattern %s delivers from %d to dead %d", a.Pattern, p, q)
				}
				return true
			})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicOrder(t *testing.T) {
	s := Space{N: 3, T: 1, MaxRound: 2, Values: []model.Value{0, 1}}
	var a, b []string
	if err := s.ForEach(func(adv *model.Adversary) bool { a = append(a, adv.String()); return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.ForEach(func(adv *model.Adversary) bool { b = append(b, adv.String()); return true }); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	count := 0
	if err := s.ForEach(func(*model.Adversary) bool { count++; return count < 10 }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("stopped after %d, want 10", count)
	}
}

func TestAllMatchesForEach(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	var viaForEach []string
	if err := s.ForEach(func(a *model.Adversary) bool { viaForEach = append(viaForEach, a.String()); return true }); err != nil {
		t.Fatal(err)
	}
	i := 0
	for idx, a := range s.All() {
		if idx != i {
			t.Fatalf("offset %d at position %d", idx, i)
		}
		if a.String() != viaForEach[i] {
			t.Fatalf("All[%d] = %s, ForEach = %s", i, a, viaForEach[i])
		}
		i++
	}
	if i != len(viaForEach) {
		t.Fatalf("All yielded %d, ForEach %d", i, len(viaForEach))
	}
}

func TestFromResumesAtOffset(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	var all []string
	for _, a := range s.All() {
		all = append(all, a.String())
	}
	// Resume at every offset across the first few input blocks plus the
	// tail; each suffix must match the full enumeration exactly.
	offsets := []int{0, 1, 7, 8, 9, len(all) / 2, len(all) - 1, len(all)}
	for _, off := range offsets {
		i := off
		for idx, a := range s.From(off) {
			if idx != i {
				t.Fatalf("From(%d): offset %d at position %d", off, idx, i)
			}
			if a.String() != all[i] {
				t.Fatalf("From(%d)[%d] = %s, want %s", off, i, a, all[i])
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("From(%d) yielded up to %d, want %d", off, i, len(all))
		}
	}
	for range s.From(len(all) + 10) {
		t.Fatal("offset past the end must yield nothing")
	}
	for range s.From(-1) {
		t.Fatal("negative offset must yield nothing")
	}
}

func TestFromEarlyStopAndResume(t *testing.T) {
	// Pause after consuming a prefix, resume from the recorded offset, and
	// check the two halves concatenate to the full enumeration.
	s := Space{N: 3, T: 1, MaxRound: 2, Values: []model.Value{0, 1}}
	var all []string
	for _, a := range s.All() {
		all = append(all, a.String())
	}
	var got []string
	next := 0
	for idx, a := range s.All() {
		got = append(got, a.String())
		next = idx + 1
		if len(got) == 11 {
			break
		}
	}
	for _, a := range s.From(next) {
		got = append(got, a.String())
	}
	if len(got) != len(all) {
		t.Fatalf("pause/resume yielded %d, want %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("pause/resume diverges at %d: %s vs %s", i, got[i], all[i])
		}
	}
}

func TestAllAdversariesValid(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	total := 0
	err := s.ForEach(func(a *model.Adversary) bool {
		total++
		if err := a.Validate(s.T, 1); err != nil {
			t.Fatalf("invalid adversary: %v", err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("empty enumeration")
	}
	if total != s.Count() {
		t.Errorf("enumerated %d, Count %d", total, s.Count())
	}
}

func TestRangeTilesTheSpace(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	var all []string
	for _, a := range s.All() {
		all = append(all, a.String())
	}
	// Consecutive windows of every size must tile the enumeration exactly,
	// including the short final window and windows past the end.
	for _, size := range []int{1, 3, 7, len(all), len(all) + 5} {
		var got []string
		for off := 0; off < len(all)+size; off += size {
			for idx, a := range s.Range(off, size) {
				if idx < off || idx >= off+size {
					t.Fatalf("Range(%d,%d): offset %d outside window", off, size, idx)
				}
				got = append(got, a.String())
			}
		}
		if len(got) != len(all) {
			t.Fatalf("size %d: tiling yielded %d, want %d", size, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("size %d: tiling diverges at %d", size, i)
			}
		}
	}
	for range s.Range(3, 0) {
		t.Fatal("non-positive limit must yield nothing")
	}
	for range s.Range(len(all)+1, 4) {
		t.Fatal("window past the end must yield nothing")
	}
}

func TestDeltaOrderMatchesAll(t *testing.T) {
	// DeltaOrder must yield exactly the adversaries of All, at the same
	// offsets, with Changed reporting the unique flipped input inside each
	// pattern block and -1 at block boundaries.
	for _, s := range []Space{
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 3, T: 1, MaxRound: 2, Values: []model.Value{0, 1, 2}},
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}},
	} {
		var all []*model.Adversary
		for _, a := range s.All() {
			all = append(all, a)
		}
		block := s.inputCount()
		i := 0
		for idx, d := range s.DeltaOrder(0) {
			if idx != i {
				t.Fatalf("%s: offset %d at position %d", s.Label(), idx, i)
			}
			if d.Adv.String() != all[i].String() {
				t.Fatalf("%s: DeltaOrder[%d] = %s, All = %s", s.Label(), i, d.Adv, all[i])
			}
			if idx%block == 0 {
				if d.Changed != -1 {
					t.Fatalf("%s: block start %d has Changed=%d, want -1", s.Label(), idx, d.Changed)
				}
			} else {
				diffs := 0
				for p := range d.Adv.Inputs {
					if d.Adv.Inputs[p] != all[i-1].Inputs[p] {
						diffs++
						if p != d.Changed {
							t.Fatalf("%s: offset %d flips input %d but Changed=%d", s.Label(), idx, p, d.Changed)
						}
					}
				}
				if diffs != 1 {
					t.Fatalf("%s: offset %d differs from predecessor in %d inputs, want 1", s.Label(), idx, diffs)
				}
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("%s: DeltaOrder yielded %d, All %d", s.Label(), i, len(all))
		}
	}
}

func TestDeltaOrderResumesMidBlock(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	var all []string
	for _, a := range s.All() {
		all = append(all, a.String())
	}
	for _, off := range []int{0, 1, 5, 8, 13, len(all) - 3} {
		i := off
		first := true
		for idx, d := range s.DeltaOrder(off) {
			if idx != i {
				t.Fatalf("DeltaOrder(%d): offset %d at position %d", off, idx, i)
			}
			if d.Adv.String() != all[i] {
				t.Fatalf("DeltaOrder(%d)[%d] = %s, want %s", off, i, d.Adv, all[i])
			}
			if first && d.Changed != -1 {
				t.Fatalf("DeltaOrder(%d): resume entry has Changed=%d, want -1", off, d.Changed)
			}
			first = false
			i++
		}
		if i != len(all) {
			t.Fatalf("DeltaOrder(%d) yielded up to %d, want %d", off, i, len(all))
		}
	}
}

func TestDeltaRangeTilesLikeRange(t *testing.T) {
	s := Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}
	var all []string
	for _, a := range s.All() {
		all = append(all, a.String())
	}
	for _, size := range []int{1, 3, 8, 11} {
		var got []string
		for off := 0; off < len(all); off += size {
			first := true
			for idx, d := range s.DeltaRange(off, size) {
				if idx < off || idx >= off+size {
					t.Fatalf("DeltaRange(%d,%d): offset %d outside window", off, size, idx)
				}
				if first && d.Changed != -1 {
					t.Fatalf("DeltaRange(%d,%d): window entry has Changed=%d, want -1", off, size, d.Changed)
				}
				first = false
				got = append(got, d.Adv.String())
			}
		}
		if len(got) != len(all) {
			t.Fatalf("size %d: tiling yielded %d, want %d", size, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("size %d: tiling diverges at %d", size, i)
			}
		}
	}
}
