package enum

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"setconsensus/internal/model"
)

// rawPattern renders a raw (uncanonicalized) pattern exactly: crashers
// in order, with their rounds and delivery sets as stored.
func rawPattern(fp *model.FailurePattern, crashers []model.Proc) string {
	var b strings.Builder
	for _, p := range crashers {
		c := fp.Crashes[p]
		fmt.Fprintf(&b, "%d@%d:%v;", p, c.Round, c.Delivered.Words())
	}
	if len(fp.Crashes) != len(crashers) {
		fmt.Fprintf(&b, "stale map entries (%d for %d crashers)", len(fp.Crashes), len(crashers))
	}
	return b.String()
}

// TestPatternWalkMatchesRecursion pins the dedup oracle's raw odometer
// to the recursive enumeration: the same raw patterns, duplicates
// included, in the same order, with the same crasher subsets.
func TestPatternWalkMatchesRecursion(t *testing.T) {
	for _, s := range []Space{
		{N: 2, T: 0, MaxRound: 1, Values: []model.Value{0}},
		{N: 2, T: 1, MaxRound: 2, Values: []model.Value{0}},
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0}},
		{N: 4, T: 1, MaxRound: 3, Values: []model.Value{0}},
		{N: 4, T: 3, MaxRound: 1, Values: []model.Value{0}},
		{N: 5, T: 2, MaxRound: 1, Values: []model.Value{0}},
	} {
		var want []string
		s.forEachPattern(func(fp *model.FailurePattern, crashers []model.Proc) bool {
			want = append(want, rawPattern(fp, crashers))
			return true
		})
		var got []string
		w := rawWalk{s: s}
		for w.next() {
			got = append(got, rawPattern(w.fp, w.crashers))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: odometer walks %d patterns, recursion %d", s.Label(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pattern %d is %s, recursion has %s", s.Label(), i, got[i], want[i])
			}
		}
	}
}

// TestCursorWindowsTile cuts random offset ranges of small spaces into
// windows at several slice bounds: the windows must be consecutive, lie
// inside one pattern block each, respect the block-relative slice
// alignment, share one canonical pattern per block, and enumerate to
// exactly the adversaries All yields over the range.
func TestCursorWindowsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range []Space{
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 3, T: 1, MaxRound: 2, Values: []model.Value{0, 1, 2}},
		{N: 4, T: 1, MaxRound: 1, Values: []model.Value{0, 1, 2}},
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}},
	} {
		var all []string
		for _, a := range s.All() {
			all = append(all, a.String())
		}
		block := s.inputCount()
		for trial := 0; trial < 20; trial++ {
			from := rng.Intn(len(all) + 2)
			to := from + rng.Intn(len(all)+2)
			if trial == 0 {
				from, to = 0, math.MaxInt
			}
			max := []int{0, 1, 4, 5, block, 2 * block}[rng.Intn(6)]
			c := NewCursor(s, from, to)
			var w Walker
			var got []string
			pats := map[int]*model.FailurePattern{}
			next := from
			for {
				win, ok := c.Next(max)
				if !ok {
					break
				}
				if win.Base != next || win.Len <= 0 {
					t.Fatalf("%s [%d,%d) max %d: window at %d+%d, want base %d", s.Label(), from, to, max, win.Base, win.Len, next)
				}
				if win.Base/block != (win.Base+win.Len-1)/block {
					t.Fatalf("%s: window %d+%d straddles a block of %d", s.Label(), win.Base, win.Len, block)
				}
				if max > 0 && (win.Len > max || (win.Base != from && win.Base%block%max != 0)) {
					t.Fatalf("%s: window %d+%d breaks the slice bound %d", s.Label(), win.Base, win.Len, max)
				}
				if p, ok := pats[win.Base/block]; ok && p != win.Pattern {
					t.Fatalf("%s: block %d materialized its pattern twice", s.Label(), win.Base/block)
				}
				pats[win.Base/block] = win.Pattern
				for _, a := range w.Append(nil, win) {
					got = append(got, a.String())
				}
				next = win.Base + win.Len
			}
			want := all[min(from, len(all)):min(to, len(all))]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s [%d,%d) max %d: windows enumerate %d adversaries, want %d", s.Label(), from, to, max, len(got), len(want))
			}
		}
	}
	if _, ok := NewCursor(Space{N: 1}, 0, math.MaxInt).Next(0); ok {
		t.Fatal("an invalid space must yield no window")
	}
	if _, ok := NewCursor(Space{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}}, -1, math.MaxInt).Next(0); ok {
		t.Fatal("a negative offset must yield no window")
	}
}
