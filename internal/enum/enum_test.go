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
		{N: 3, T: 1, MaxRound: 1, Values: []model.Value{-1, 0}},
		{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, model.ValueLimit}},
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
		for _, c := range a.Pattern.Crashes {
			c.Delivered.ForEach(func(q int) bool {
				if !a.Pattern.Active(q, c.Round) {
					t.Errorf("pattern %s delivers from %d to dead %d", a.Pattern, c.Proc, q)
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

// TestAllAdversariesValid pins that every adversary of a valid space is
// valid, as enumerated by ForEach and as a sweep cuts it: windows from a
// Cursor, enumerated by Walker.AppendReused into its one reused arena,
// which a sweep does not validate again. The second space holds the
// largest admissible value.
func TestAllAdversariesValid(t *testing.T) {
	for _, s := range []Space{
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, model.ValueLimit - 1}},
	} {
		maxV := s.Values[len(s.Values)-1]
		total := 0
		err := s.ForEach(func(a *model.Adversary) bool {
			total++
			if err := a.Validate(s.T, maxV); err != nil {
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
		var w Walker
		var advs []*model.Adversary
		cut := 0
		c := NewCursor(s, 0, total)
		for win, ok := c.Next(3); ok; win, ok = c.Next(3) {
			advs = w.AppendReused(advs[:0], win)
			for _, a := range advs {
				if err := a.Validate(s.T, maxV); err != nil {
					t.Fatalf("%s: invalid adversary in window at %d: %v", s.Label(), win.Base, err)
				}
			}
			cut += len(advs)
		}
		if cut != total {
			t.Errorf("%s: windows cut %d adversaries, Count %d", s.Label(), cut, total)
		}
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

// TestAllStepsOneInputWithinBlocks pins the delta order the Builder's
// patch path rides: inside a pattern block, consecutive adversaries of
// All share the block's failure pattern and differ in exactly one
// process's initial value; a new block starts a new pattern.
func TestAllStepsOneInputWithinBlocks(t *testing.T) {
	for _, s := range []Space{
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 3, T: 1, MaxRound: 2, Values: []model.Value{0, 1, 2}},
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}},
	} {
		block := s.inputCount()
		var prev *model.Adversary
		for idx, adv := range s.All() {
			if idx%block == 0 {
				if prev != nil && adv.Pattern == prev.Pattern {
					t.Fatalf("%s: block start %d shares the previous block's pattern", s.Label(), idx)
				}
				prev = adv
				continue
			}
			if adv.Pattern != prev.Pattern {
				t.Fatalf("%s: offset %d changes pattern inside its block", s.Label(), idx)
			}
			diffs := 0
			for p := range adv.Inputs {
				if adv.Inputs[p] != prev.Inputs[p] {
					diffs++
				}
			}
			if diffs != 1 {
				t.Fatalf("%s: offset %d differs from its predecessor in %d inputs, want 1", s.Label(), idx, diffs)
			}
			prev = adv
		}
	}
}
