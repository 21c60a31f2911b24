package enum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"setconsensus/internal/model"
)

// values returns the value set 0..v−1.
func values(v int) []model.Value {
	out := make([]model.Value, v)
	for i := range out {
		out[i] = i
	}
	return out
}

func newTestUnranker(s Space) *unranker { return &NewCursor(s, 0, 0).patterns }

// rawPatterns is the number of raw patterns the dedup walk visits.
func rawPatterns(s Space) int {
	per := s.MaxRound << uint(s.N-1)
	n, sets := 0, 1
	for m := 0; m <= s.T; m++ {
		term := sets
		for i := 0; i < m; i++ {
			term *= per
		}
		n += term
		sets = sets * (s.N - m) / (m + 1)
	}
	return n
}

// oracleSpaces are the spaces the canonical walk is checked on against
// the dedup walk: at least 30 drawn at random (n ≤ 5, t ≤ n−1, r ≤ 3,
// |V| ≤ 3, small enough for the dedup walk to run in milliseconds), and
// every space the tests, the benchmark and the smoke scripts sweep or
// compile (the search families enumerate n=3..5 at r ≤ 3), and a few
// with many rounds.
func oracleSpaces() []Space {
	rng := rand.New(rand.NewSource(21))
	var spaces []Space
	for len(spaces) < 32 {
		n := 2 + rng.Intn(4)
		s := Space{N: n, T: rng.Intn(n), MaxRound: 1 + rng.Intn(3), Values: values(1 + rng.Intn(3))}
		if rawPatterns(s) <= 20000 {
			spaces = append(spaces, s)
		}
	}
	for _, d := range [][4]int{
		{2, 0, 1, 1}, {2, 0, 1, 2}, {2, 1, 1, 1},
		{3, 1, 1, 1}, {3, 1, 1, 2}, {3, 1, 2, 2}, {3, 2, 2, 1}, {3, 2, 2, 2}, {3, 2, 2, 3}, {3, 2, 3, 2}, {3, 2, 3, 3},
		{4, 1, 1, 3}, {4, 1, 3, 3}, {4, 2, 1, 3}, {4, 2, 2, 1}, {4, 2, 2, 2}, {4, 2, 2, 3}, {4, 2, 2, 4}, {4, 3, 2, 3}, {4, 3, 3, 2},
		{5, 1, 2, 3}, {5, 2, 1, 2}, {5, 2, 2, 2}, {5, 2, 2, 3}, {5, 2, 3, 3}, {5, 3, 2, 3},
		{6, 1, 1, 3}, {9, 0, 1, 2},
		// Many rounds, so the gaps between crash rounds hold several.
		{2, 1, 100, 2}, {3, 2, 16, 1}, {3, 2, 64, 1}, {4, 2, 9, 1}, {4, 3, 4, 1},
	} {
		spaces = append(spaces, Space{N: d[0], T: d[1], MaxRound: d[2], Values: values(d[3])})
	}
	return spaces
}

// advRecord is one enumerated adversary, as the oracle compares it.
type advRecord struct {
	off     int
	inputs  string
	pattern string
	changed int
}

func collect(c windowCutter, max, limit int) []advRecord {
	var out []advRecord
	walkCutter(c, max, func(off int, adv *model.Adversary, changed int) bool {
		out = append(out, advRecord{off, fmt.Sprint(adv.Inputs), string(adv.Pattern.AppendFingerprint(nil)), changed})
		return len(out) < limit
	})
	return out
}

func sameRecords(t *testing.T, label string, got, want []advRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: canonical walk yields %d adversaries, dedup walk %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: adversary %d is %+v, dedup walk has %+v", label, i, got[i], want[i])
		}
	}
}

// TestCanonicalWalkMatchesDedupWalk is the oracle for the canonical
// walk: on every oracle space unranking each index and stepping from
// pattern to pattern must both generate the dedup walk's patterns in the
// same order (same rendering, same fingerprint), Count must equal the
// walk's length, and cursors entered at block boundaries and at random
// mid-block offsets, cut at random slice bounds, must yield the same
// adversaries at the same offsets with the same Delta.Changed.
func TestCanonicalWalkMatchesDedupWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, s := range oracleSpaces() {
		label := fmt.Sprintf("%s v=%v", s.Label(), s.Values)
		want := dedupPatterns(s)
		block := s.inputCount()
		if got := s.Count(); got != len(want)*block {
			t.Fatalf("%s: Count %d, dedup walk %d patterns × %d", label, got, len(want), block)
		}
		u, step := newTestUnranker(s), newTestUnranker(s)
		for i, p := range want {
			if !u.unrank(i) || i == 0 && !step.unrank(0) || i > 0 && !step.next() {
				t.Fatalf("%s: canonical walk ends after %d patterns, dedup walk has %d", label, i, len(want))
			}
			for _, got := range []*model.FailurePattern{u.pattern(), step.pattern()} {
				if got.String() != p.String() || string(got.AppendFingerprint(nil)) != string(p.AppendFingerprint(nil)) {
					t.Fatalf("%s: pattern %d is %s, dedup walk has %s", label, i, got, p)
				}
			}
		}
		if u.unrank(len(want)) || step.next() {
			t.Fatalf("%s: canonical walk runs past the dedup walk's %d patterns", label, len(want))
		}

		// Enter at block boundaries: every one on small spaces, a sample
		// on large ones.
		for trial := 0; trial < min(len(want), 300); trial++ {
			b := trial
			if len(want) > 300 {
				b = rng.Intn(len(want))
			}
			win, ok := NewCursor(s, b*block, b*block+1).Next(0)
			if !ok || win.Base != b*block || win.Pattern.String() != want[b].String() {
				t.Fatalf("%s: cursor entered at block %d yields %+v, want pattern %s", label, b, win, want[b])
			}
		}

		// Whole-space walks and random ranges, mid-block entries
		// included, at random slice bounds.
		total := len(want) * block
		if total <= 40000 {
			sameRecords(t, label, collect(NewCursor(s, 0, math.MaxInt), 0, math.MaxInt),
				collect(newDedupCursor(s, 0, math.MaxInt), 0, math.MaxInt))
		}
		// The dedup cursor walks the whole prefix to enter a range, so the
		// largest spaces get fewer ranges.
		trials := 12
		if testing.Short() {
			trials = 4
		}
		if rawPatterns(s) > 20000 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			from := rng.Intn(total + 1)
			to := from + rng.Intn(min(total, 3000)+2)
			max := []int{0, 1, 3, block, 2 * block}[rng.Intn(5)]
			sameRecords(t, fmt.Sprintf("%s [%d,%d) max %d", label, from, to, max),
				collect(NewCursor(s, from, to), max, math.MaxInt), collect(newDedupCursor(s, from, to), max, math.MaxInt))
		}
	}
}

// TestSpaceCountPins pins the counts of the benchmark's and the
// admission tests' spaces. The two larger ones are checked against the
// dedup walk pattern by pattern; the n=6 one only without -short.
func TestSpaceCountPins(t *testing.T) {
	for _, c := range []struct {
		s    Space
		want int
		walk bool
	}{
		{Space{N: 5, T: 1, MaxRound: 2, Values: values(3)}, 39123, false},     // sweep-space
		{Space{N: 4, T: 2, MaxRound: 2, Values: values(2)}, 10256, false},     // coord-ckpt, daemon-jobs
		{Space{N: 5, T: 3, MaxRound: 2, Values: values(3)}, 5015763, true},    // search:upmin:n=5,t=3,r=2,k=2
		{Space{N: 6, T: 3, MaxRound: 2, Values: values(3)}, 211165785, false}, // search:upmin:n=6,t=3,r=2,k=2
	} {
		if got := c.s.Count(); got != c.want {
			t.Errorf("%s: Count %d, want %d", c.s.Label(), got, c.want)
		}
		if !c.walk && (testing.Short() || c.want < 1e8) {
			continue
		}
		want := dedupPatterns(c.s)
		u, step := newTestUnranker(c.s), newTestUnranker(c.s)
		n := 0
		for more := step.unrank(0); more; more = step.next() {
			if n >= len(want) || step.pattern().String() != want[n].String() {
				t.Fatalf("%s: pattern %d differs from the dedup walk", c.s.Label(), n)
			}
			if n%97 == 0 && (!u.unrank(n) || u.pattern().String() != want[n].String()) {
				t.Fatalf("%s: unranking %d differs from the dedup walk", c.s.Label(), n)
			}
			n++
		}
		if n*c.s.inputCount() != c.want {
			t.Fatalf("%s: the walk holds %d patterns, want %d", c.s.Label(), n, c.want/c.s.inputCount())
		}
	}
}

// TestCursorSeekIsCheap pins range entry at a cost independent of the
// offset: a cursor entered at the last block of n=5,t=3,r=2,|v|=3 returns
// its first window in well under a millisecond, and allocates no more
// there than at the first pattern with as many crashers — it holds no
// per-pattern state.
func TestCursorSeekIsCheap(t *testing.T) {
	s := Space{N: 5, T: 3, MaxRound: 2, Values: values(3)}
	last := s.Count() - s.inputCount()
	var a arith
	perSet, _ := s.setPatterns(&a)
	first := (perSet[0] + perSet[1] + perSet[2]) * s.inputCount() // the set {0, 1, 2}, third in pre-order
	best := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		win, ok := NewCursor(s, last, math.MaxInt).Next(0)
		best = min(best, time.Since(start))
		if !ok || win.Base != last || win.Len != s.inputCount() {
			t.Fatalf("last block: window %+v, ok=%v", win, ok)
		}
	}
	if best > time.Millisecond {
		t.Errorf("entering the last block took %v, want under 1ms", best)
	}
	if win, _ := NewCursor(s, first, math.MaxInt).Next(0); win.Pattern.String() != "crash(0@r1→{}, 1@r1→{}, 2@r1→{})" {
		t.Fatalf("offset %d holds %s, want the first pattern of {0, 1, 2}", first, win.Pattern)
	}
	early := testing.AllocsPerRun(20, func() { NewCursor(s, first, math.MaxInt).Next(0) })
	late := testing.AllocsPerRun(20, func() { NewCursor(s, last, math.MaxInt).Next(0) })
	if late > early {
		t.Errorf("entering the last block allocates %v times, the first three-crasher block %v", late, early)
	}
}

// TestCursorStepCostIndependentOfMaxRound: a cursor steps from block to
// block at a cost that does not grow with MaxRound. A whole sweep of
// n=3,t=2 with one value (one adversary per block) costs about as much
// per block at r=64 as at r=16; unranking every block from scratch would
// cost about (64/16)² times more.
func TestCursorStepCostIndependentOfMaxRound(t *testing.T) {
	perBlock := func(s Space) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start, c, n := time.Now(), NewCursor(s, 0, math.MaxInt), 0
			for _, ok := c.Next(0); ok; _, ok = c.Next(0) {
				n++
			}
			best = min(best, time.Since(start)/time.Duration(n))
			if n != s.Count() {
				t.Fatalf("%s: the cursor yields %d blocks, Count %d", s.Label(), n, s.Count())
			}
		}
		return best
	}
	low := perBlock(Space{N: 3, T: 2, MaxRound: 16, Values: values(1)})
	high := perBlock(Space{N: 3, T: 2, MaxRound: 64, Values: values(1)})
	if high > 3*low {
		t.Errorf("a block costs %v at r=64 and %v at r=16, want at most three times as much", high, low)
	}
}

// TestUnrankAgreesWithStepAtManyRounds checks unranking where the dedup
// walk cannot go, on spaces with up to 2^61 rounds: the pattern after the
// k-th is the (k+1)-th, each pattern is canonical (a crasher delivers to
// another only when that one crashes later), the last pattern unranks
// and the one past it does not.
func TestUnrankAgreesWithStepAtManyRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []Space{
		{N: 2, T: 1, MaxRound: math.MaxInt / 4, Values: values(1)},
		{N: 3, T: 2, MaxRound: 1 << 20, Values: values(1)},
		{N: 4, T: 3, MaxRound: 1000, Values: values(1)},
		{N: 5, T: 2, MaxRound: 1 << 24, Values: values(1)},
		{N: 6, T: 4, MaxRound: 7, Values: values(1)},
	} {
		u, v, total := newTestUnranker(s), newTestUnranker(s), s.Count()
		for trial := 0; trial < 200; trial++ {
			k := []int{0, total - 2, rng.Intn(total - 1)}[min(trial, 2)]
			if !u.unrank(k) || !u.next() || !v.unrank(k+1) {
				t.Fatalf("%s: pattern %d or %d missing", s.Label(), k, k+1)
			}
			p := u.pattern()
			if q := v.pattern(); p.String() != q.String() {
				t.Fatalf("%s: the pattern after %d is %s, pattern %d is %s", s.Label(), k, p, k+1, q)
			}
			for i, c := range p.Crashes {
				for j, d := range p.Crashes {
					if i != j && c.Delivered.Contains(j) && d.Round <= c.Round {
						t.Fatalf("%s: pattern %d is not canonical: %s", s.Label(), k+1, p)
					}
				}
			}
		}
		if !u.unrank(total-1) || u.next() || u.unrank(total) {
			t.Fatalf("%s: a pattern past the last", s.Label())
		}
	}
}

// TestCountOverflowRejected: a space whose count does not fit an int is
// invalid — Validate says so, Count reports 0 and a cursor yields
// nothing — while the largest spaces that fit still count exactly.
func TestCountOverflowRejected(t *testing.T) {
	for _, s := range []Space{
		{N: 60, T: 1, MaxRound: 1, Values: values(1)},
		{N: 20, T: 10, MaxRound: 2, Values: values(1)},
		{N: 3, T: 2, MaxRound: math.MaxInt, Values: values(1)},
		{N: 2, T: 1, MaxRound: math.MaxInt / 2, Values: values(1)},
		{N: 64, T: 0, MaxRound: 1, Values: values(2)},
		{N: 3, T: 0, MaxRound: 1, Values: values(3000000)},
	} {
		if s.Validate() == nil || s.Count() != 0 {
			t.Errorf("%s: Validate %v, Count %d; want an error and 0", s.Label(), s.Validate(), s.Count())
		}
		if _, ok := NewCursor(s, 0, math.MaxInt).Next(0); ok {
			t.Errorf("%s: a cursor yields a window", s.Label())
		}
	}
	for _, c := range []struct {
		s    Space
		want int
	}{
		{Space{N: 2, T: 1, MaxRound: math.MaxInt / 4, Values: values(1)}, 1 + 2*2*(math.MaxInt/4)},
		{Space{N: 62, T: 0, MaxRound: 1, Values: values(2)}, 1 << 62},
		{Space{N: 1 << 40, T: 0, MaxRound: 5, Values: values(1)}, 1},
	} {
		if got := c.s.Count(); got != c.want {
			t.Errorf("%s: Count %d, want %d", c.s.Label(), got, c.want)
		}
	}
}
