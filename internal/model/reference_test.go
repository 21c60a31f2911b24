package model

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"setconsensus/internal/bitset"
)

// referencePattern is FailurePattern as it was written before its
// crashes moved into a sorted slice: a map from each faulty process to
// its crash, with every method read off the map and sorting the
// crashers wherever order shows. It is the oracle the slice
// representation must agree with, method for method.
type referencePattern struct {
	N       int
	Crashes map[Proc]Crash
}

// referenceOf copies f into the map representation, sharing its
// delivery sets.
func referenceOf(f *FailurePattern) *referencePattern {
	r := &referencePattern{N: f.N, Crashes: make(map[Proc]Crash, len(f.Crashes))}
	for _, c := range f.Crashes {
		r.Crashes[c.Proc] = Crash{Round: c.Round, Delivered: c.Delivered}
	}
	return r
}

func (f *referencePattern) CrashRound(p Proc) int {
	if c, ok := f.Crashes[p]; ok {
		return c.Round
	}
	return NoCrash
}

func (f *referencePattern) Faulty(p Proc) bool {
	_, ok := f.Crashes[p]
	return ok
}

func (f *referencePattern) Active(p Proc, m int) bool { return f.CrashRound(p) > m }

func (f *referencePattern) CorrectProcs() *bitset.Set {
	s := bitset.New(f.N)
	for p := 0; p < f.N; p++ {
		if !f.Faulty(p) {
			s.Add(p)
		}
	}
	return s
}

func (f *referencePattern) Delivered(from, to Proc, round int) bool {
	if round < 1 {
		return false
	}
	c, faulty := f.Crashes[from]
	if from == to {
		return !faulty || c.Round > round-1
	}
	if !faulty || round < c.Round {
		return true
	}
	if round == c.Round {
		return c.Delivered.Contains(to)
	}
	return false
}

func (f *referencePattern) MaxCrashRound() int {
	max := 0
	for _, c := range f.Crashes {
		if c.Round > max {
			max = c.Round
		}
	}
	return max
}

func (f *referencePattern) Validate(t int) error {
	if f.N < 2 {
		return fmt.Errorf("model: need n ≥ 2 processes, have %d", f.N)
	}
	if t >= 0 && len(f.Crashes) > t {
		return fmt.Errorf("model: %d crashes exceed bound t=%d", len(f.Crashes), t)
	}
	for p, c := range f.Crashes {
		if p < 0 || p >= f.N {
			return fmt.Errorf("model: crash of out-of-range process %d", p)
		}
		if c.Round < 1 {
			return fmt.Errorf("model: process %d crashes in round %d < 1", p, c.Round)
		}
		bad := -1
		c.Delivered.ForEach(func(q int) bool {
			if q >= f.N {
				bad = q
				return false
			}
			return true
		})
		if bad >= 0 {
			return fmt.Errorf("model: process %d delivers to out-of-range process %d", p, bad)
		}
	}
	return nil
}

func (f *referencePattern) sortedFaulty() []int {
	procs := make([]int, 0, len(f.Crashes))
	for p := range f.Crashes {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs
}

func (f *referencePattern) String() string {
	if len(f.Crashes) == 0 {
		return "crash()"
	}
	b := []byte("crash(")
	for i, p := range f.sortedFaulty() {
		if i > 0 {
			b = append(b, ", "...)
		}
		c := f.Crashes[p]
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, "@r"...)
		b = strconv.AppendInt(b, int64(c.Round), 10)
		b = append(b, "→"...)
		b = append(b, c.Delivered.String()...)
	}
	return string(append(b, ')'))
}

func (f *referencePattern) Canonical() *referencePattern {
	out := &referencePattern{N: f.N, Crashes: make(map[Proc]Crash)}
	for p, c := range f.Crashes {
		d := bitset.New(f.N)
		c.Delivered.ForEach(func(q int) bool {
			if q != p && f.Active(q, c.Round) {
				d.Add(q)
			}
			return true
		})
		out.Crashes[p] = Crash{Round: c.Round, Delivered: d}
	}
	return out
}

// Fingerprint is the general, word-by-word path of the map-based
// AppendFingerprint; its single-word fast path encoded the same bytes.
func (f *referencePattern) Fingerprint() string {
	w := (f.N + 63) >> 6
	var b []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, p := range f.sortedFaulty() {
		c := f.Crashes[p]
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(p))]...)
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Round))]...)
		for wi := 0; wi < w; wi++ {
			var word uint64
			if dw := c.Delivered.Words(); wi < len(dw) {
				word = dw[wi]
			}
			var keep uint64
			for word != 0 {
				bit := word & (-word)
				q := wi*64 + bits.TrailingZeros64(word)
				word &^= bit
				if q != p && q < f.N && f.Active(q, c.Round) {
					keep |= bit
				}
			}
			binary.LittleEndian.PutUint64(tmp[:8], keep)
			b = append(b, tmp[:8]...)
		}
	}
	return string(b)
}

// checkAgainstReference asserts that every query of f answers as the
// map representation of the same crashes does, and that a Clone of f
// shares nothing with it.
func checkAgainstReference(t testing.TB, f *FailurePattern) {
	t.Helper()
	ref := referenceOf(f)
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, reference %v", f, what, got, want)
	}
	rounds := f.MaxCrashRound() + 1
	for p := -1; p <= f.N; p++ {
		if got, want := f.CrashRound(p), ref.CrashRound(p); got != want {
			fail(fmt.Sprintf("CrashRound(%d)", p), got, want)
		}
		if got, want := f.Faulty(p), ref.Faulty(p); got != want {
			fail(fmt.Sprintf("Faulty(%d)", p), got, want)
		}
		for m := 0; m <= rounds; m++ {
			if got, want := f.Active(p, m), ref.Active(p, m); got != want {
				fail(fmt.Sprintf("Active(%d, %d)", p, m), got, want)
			}
		}
	}
	for from := 0; from < f.N; from++ {
		for to := 0; to < f.N; to++ {
			for round := 0; round <= rounds; round++ {
				if got, want := f.Delivered(from, to, round), ref.Delivered(from, to, round); got != want {
					fail(fmt.Sprintf("Delivered(%d, %d, %d)", from, to, round), got, want)
				}
			}
		}
	}
	if got, want := f.NumFailures(), len(ref.Crashes); got != want {
		fail("NumFailures", got, want)
	}
	if got, want := f.MaxCrashRound(), ref.MaxCrashRound(); got != want {
		fail("MaxCrashRound", got, want)
	}
	if got, want := f.CorrectProcs(), ref.CorrectProcs(); !got.Equal(want) {
		fail("CorrectProcs", got, want)
	}
	if got, want := f.String(), ref.String(); got != want {
		fail("String", got, want)
	}
	if got, want := f.Fingerprint(), ref.Fingerprint(); got != want {
		fail("Fingerprint", []byte(got), []byte(want))
	}
	if got, want := f.Canonical().String(), ref.Canonical().String(); got != want {
		fail("Canonical", got, want)
	}
	for _, bound := range []int{-1, 0, len(ref.Crashes) - 1, len(ref.Crashes)} {
		if got, want := f.Validate(bound), ref.Validate(bound); (got == nil) != (want == nil) {
			fail(fmt.Sprintf("Validate(%d)", bound), got, want)
		}
	}
	str, fp := f.String(), f.Fingerprint()
	c := f.Clone()
	if c == f || c.String() != str || c.Fingerprint() != fp {
		t.Fatalf("%s: Clone is %s", f, c)
	}
	for _, cr := range c.Crashes {
		cr.Delivered.Add(cr.Proc)
		cr.Delivered.Remove(0)
		cr.Delivered.Add(1)
	}
	if len(c.Crashes) > 0 {
		c.RemoveCrash(c.Crashes[0].Proc)
	}
	c.SetCrash(Crash{Proc: f.N - 1, Round: 1, Delivered: bitset.Full(f.N)})
	if f.String() != str || f.Fingerprint() != fp {
		t.Fatalf("editing a Clone changed the original: %s, was %s", f, str)
	}
}

// randomPattern draws a pattern over n processes with up to t crashers,
// filed by SetCrash in random order, some then dropped by RemoveCrash,
// with delivery sets that include unobservable bits. When broken, one
// crash is malformed: a crasher out of range, a round below 1 or a
// delivery to a process out of range.
func randomPattern(rng *rand.Rand, n, t, maxRound int, broken bool) *FailurePattern {
	f := NewFailurePattern(n)
	for _, p := range rng.Perm(n)[:rng.Intn(t+1)] {
		d := bitset.New(n)
		for q := 0; q < n; q++ {
			if rng.Intn(2) == 0 {
				d.Add(q)
			}
		}
		f.SetCrash(Crash{Proc: p, Round: 1 + rng.Intn(maxRound), Delivered: d})
	}
	if len(f.Crashes) > 0 && rng.Intn(4) == 0 {
		f.RemoveCrash(f.Crashes[rng.Intn(len(f.Crashes))].Proc)
	}
	if !broken {
		return f
	}
	switch rng.Intn(4) {
	case 0:
		f.SetCrash(Crash{Proc: n + rng.Intn(3), Round: 1, Delivered: bitset.New(n)})
	case 1:
		f.SetCrash(Crash{Proc: -1, Round: 1, Delivered: bitset.New(n)})
	case 2:
		f.SetCrash(Crash{Proc: rng.Intn(n), Round: 0, Delivered: bitset.New(n)})
	default:
		f.SetCrash(Crash{Proc: rng.Intn(n), Round: 1, Delivered: bitset.New(n).Add(n + rng.Intn(70))})
	}
	return f
}

// TestPatternMatchesReference checks the sorted-slice pattern against
// the map it replaced on random patterns, valid and malformed, at n = 2,
// 6 and 70 — the last with two-word delivery sets.
func TestPatternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ n, t, rounds int }{{2, 1, 2}, {6, 5, 3}, {70, 9, 4}} {
		for trial := 0; trial < 400; trial++ {
			f := randomPattern(rng, c.n, c.t, c.rounds, trial%5 == 4)
			checkAgainstReference(t, f)
			if sorted := sort.SliceIsSorted(f.Crashes, func(i, j int) bool { return f.Crashes[i].Proc < f.Crashes[j].Proc }); !sorted {
				t.Fatalf("SetCrash and RemoveCrash left %s out of order", f)
			}
		}
	}
}

// TestValidateRejectsDisorder pins what only the slice can get wrong: a
// hand-built Crashes out of order, or naming a process twice, is
// rejected, and the first bad crash in order is the one named.
func TestValidateRejectsDisorder(t *testing.T) {
	set := bitset.New(4)
	for _, crashes := range [][]Crash{
		{{Proc: 2, Round: 1, Delivered: set}, {Proc: 1, Round: 1, Delivered: set}},
		{{Proc: 1, Round: 1, Delivered: set}, {Proc: 1, Round: 2, Delivered: set}},
	} {
		if err := (&FailurePattern{N: 4, Crashes: crashes}).Validate(-1); err == nil {
			t.Errorf("crashers %v out of order accepted", crashes)
		}
	}
	f := &FailurePattern{N: 4, Crashes: []Crash{
		{Proc: 1, Round: 0, Delivered: set},
		{Proc: 3, Round: 0, Delivered: set},
	}}
	if err := f.Validate(-1); err == nil || err.Error() != "model: process 1 crashes in round 0 < 1" {
		t.Errorf("Validate names %v, want the lowest bad crasher", err)
	}
}

// TestSetCrashKeepsCarvedNeighbours pins the full-slice carve: growing
// one carved pattern past its room reallocates instead of writing into
// the pattern carved after it.
func TestSetCrashKeepsCarvedNeighbours(t *testing.T) {
	var slab PatternSlab
	a, b := slab.Pattern(4, 1, 8), slab.Pattern(4, 1, 8)
	b.SetCrash(Crash{Proc: 3, Round: 2, Delivered: slab.Set(4, 8)})
	a.SetCrash(Crash{Proc: 0, Round: 1, Delivered: slab.Set(4, 8)})
	a.SetCrash(Crash{Proc: 1, Round: 1, Delivered: slab.Set(4, 8)})
	if got := b.String(); got != "crash(3@r2→{})" {
		t.Fatalf("growing a carved pattern overwrote its neighbour: %s", got)
	}
	if got := a.String(); got != "crash(0@r1→{}, 1@r1→{})" {
		t.Fatalf("grown pattern is %s", got)
	}
}
