// Package model defines the synchronous crash-failure computation model of
// the paper: input vectors, failure patterns, and adversaries.
//
// Terminology follows Section 2.1 of Castañeda–Gonczarowski–Moses:
// round m+1 takes place between time m and time m+1; a process crashing in
// round c behaves correctly in rounds 1..c−1, delivers an arbitrary subset
// of its round-c messages, and is silent from round c+1 on. A pair
// (input vector, failure pattern) is an adversary.
package model

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"setconsensus/internal/bitset"
)

// Proc identifies a process. Processes are numbered 0..n−1. (The paper
// numbers them 1..n; zero-basing is an implementation convenience and is
// reflected everywhere consistently.)
type Proc = int

// Value is an initial or decided value. In k-set consensus values range
// over {0,…,k} by default, and {0,…,d} with d ≥ k under the footnote-4
// generalization; values < k are "low", values ≥ k are "high".
type Value = int

// NoCrash is the crash round recorded for correct processes; it compares
// greater than every real round.
const NoCrash = int(^uint(0) >> 1) // max int

// Crash describes the failure of one process: the round in which it
// crashes (≥ 1) and the set of processes that still receive its crash-round
// message. Deliveries to itself are meaningless and ignored.
type Crash struct {
	Round     int
	Delivered *bitset.Set
}

// FailurePattern maps each faulty process to its Crash. It corresponds to
// the layered graph F of the paper restricted to crash failures.
type FailurePattern struct {
	N       int
	Crashes map[Proc]Crash
}

// NewFailurePattern returns a failure-free pattern over n processes.
func NewFailurePattern(n int) *FailurePattern {
	return &FailurePattern{N: n, Crashes: make(map[Proc]Crash)}
}

// Clone returns a deep copy of the pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	c := NewFailurePattern(f.N)
	for p, cr := range f.Crashes {
		c.Crashes[p] = Crash{Round: cr.Round, Delivered: cr.Delivered.Clone()}
	}
	return c
}

// CrashRound returns the round in which p crashes, or NoCrash.
func (f *FailurePattern) CrashRound(p Proc) int {
	if c, ok := f.Crashes[p]; ok {
		return c.Round
	}
	return NoCrash
}

// Faulty reports whether p crashes at all.
func (f *FailurePattern) Faulty(p Proc) bool {
	_, ok := f.Crashes[p]
	return ok
}

// NumFailures returns f, the number of processes that crash.
func (f *FailurePattern) NumFailures() int { return len(f.Crashes) }

// Active reports whether p is alive at time m: it has not crashed in any
// round ≤ m. A process crashing in round c is active at times 0..c−1.
func (f *FailurePattern) Active(p Proc, m int) bool {
	return f.CrashRound(p) > m
}

// Correct reports whether p never crashes.
func (f *FailurePattern) Correct(p Proc) bool { return !f.Faulty(p) }

// CorrectProcs returns the set of processes that never crash.
func (f *FailurePattern) CorrectProcs() *bitset.Set {
	s := bitset.New(f.N)
	for p := 0; p < f.N; p++ {
		if f.Correct(p) {
			s.Add(p)
		}
	}
	return s
}

// Delivered reports whether the message sent by `from` in round `round`
// (sent at time round−1, received at time round) reaches `to`. Processes
// always "hear" themselves while alive. Delivery to a crashed receiver is
// reported as the pattern dictates; receivers that are dead simply never
// look at their inbox.
func (f *FailurePattern) Delivered(from, to Proc, round int) bool {
	if round < 1 {
		return false
	}
	c, faulty := f.Crashes[from]
	if from == to {
		// Self-communication persists while the process is alive at
		// sending time (time round−1).
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

// MaxCrashRound returns the latest round in which any process crashes,
// or 0 for a failure-free pattern.
func (f *FailurePattern) MaxCrashRound() int {
	max := 0
	for _, c := range f.Crashes {
		if c.Round > max {
			max = c.Round
		}
	}
	return max
}

// Validate checks structural sanity: process indices in range, crash
// rounds ≥ 1, at most t crashes if t ≥ 0 (pass t < 0 to skip the bound).
func (f *FailurePattern) Validate(t int) error {
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

// String renders the pattern compactly, e.g. "crash(1@r1→{2}, 3@r2→{})".
// It is rendered by hand (strconv, not fmt): the string is built once per
// Result and once per enumerated pattern, which made reflection-driven
// formatting a measurable slice of sweep throughput.
func (f *FailurePattern) String() string {
	if len(f.Crashes) == 0 {
		return "crash()"
	}
	procs := f.sortedFaulty()
	b := make([]byte, 0, 16+24*len(procs))
	b = append(b, "crash("...)
	for i, p := range procs {
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
	b = append(b, ')')
	return string(b)
}

// sortedFaulty returns the faulty processes in increasing order.
func (f *FailurePattern) sortedFaulty() []int {
	procs := make([]int, 0, len(f.Crashes))
	for p := range f.Crashes {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs
}

// Canonical returns a copy of the pattern with unobservable deliveries
// stripped: a crash-round delivery to a receiver that is already dead at
// receipt time is never read, and delivery to oneself is implicit. Two
// patterns whose Canonical forms render identically are observably equal
// — no protocol can distinguish the runs they induce.
func (f *FailurePattern) Canonical() *FailurePattern {
	out := NewFailurePattern(f.N)
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

// Adversary couples an input vector with a failure pattern: the pair
// α = (v⃗, F) of the paper. It fully determines a run of any deterministic
// protocol.
type Adversary struct {
	Inputs  []Value
	Pattern *FailurePattern
}

// NewAdversary builds an adversary over len(inputs) processes.
func NewAdversary(inputs []Value, pattern *FailurePattern) *Adversary {
	return &Adversary{Inputs: append([]Value(nil), inputs...), Pattern: pattern}
}

// N returns the number of processes.
func (a *Adversary) N() int { return len(a.Inputs) }

// Clone returns a deep copy.
func (a *Adversary) Clone() *Adversary {
	return &Adversary{
		Inputs:  append([]Value(nil), a.Inputs...),
		Pattern: a.Pattern.Clone(),
	}
}

// Validate checks the adversary against a value domain {0..maxValue} and
// crash bound t (t < 0 skips the bound, maxValue < 0 skips the domain).
func (a *Adversary) Validate(t, maxValue int) error {
	if a.Pattern == nil {
		return fmt.Errorf("model: adversary has nil failure pattern")
	}
	if a.Pattern.N != a.N() {
		return fmt.Errorf("model: pattern over %d processes but %d inputs", a.Pattern.N, a.N())
	}
	if err := a.Pattern.Validate(t); err != nil {
		return err
	}
	if maxValue >= 0 {
		for p, v := range a.Inputs {
			if v < 0 || v > maxValue {
				return fmt.Errorf("model: input %d of process %d outside {0..%d}", v, p, maxValue)
			}
		}
	}
	return nil
}

// String renders the adversary, e.g. "adv(inputs=[0 1 2], crash())".
// Hand-rendered like FailurePattern.String: every Result carries this
// string, so it is on the sweep hot path.
func (a *Adversary) String() string {
	b := make([]byte, 0, 32+4*len(a.Inputs))
	b = append(b, "adv(inputs=["...)
	for i, v := range a.Inputs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, "], "...)
	b = append(b, a.Pattern.String()...)
	b = append(b, ')')
	return string(b)
}

// AppendFingerprint appends the pattern's canonical binary encoding to
// b and returns the extended buffer. Observably equal patterns — equal
// up to deliveries to the crasher itself or to receivers already dead
// at receipt time, which no protocol can distinguish — append identical
// bytes, exactly the Canonical equivalence, without materializing the
// canonical pattern. The encoding is varints (crasher, round) plus raw
// delivery-mask words, sorted by crasher; it is an opaque key to hash
// and compare, never to parse. The call itself allocates nothing beyond
// growing b (up to 8 crashers sort in a stack buffer), so hot loops can
// key millions of patterns through one reused buffer.
func (f *FailurePattern) AppendFingerprint(b []byte) []byte {
	var stack [8]Proc
	var procs []Proc
	if len(f.Crashes) <= len(stack) {
		procs = stack[:0]
		for p := range f.Crashes {
			procs = append(procs, p)
		}
		sort.Ints(procs)
	} else {
		procs = f.sortedFaulty()
	}
	w := (f.N + 63) >> 6
	var tmp [binary.MaxVarintLen64]byte
	if w == 1 && len(procs) <= 8 {
		// Single-word pattern: the unobservable bits — self-delivery and
		// receivers dead at receipt time, the latter exactly the crashers
		// with round ≤ this crash's round — strip with one mask instead
		// of a per-bit liveness test.
		var rounds [8]int
		for k, p := range procs {
			rounds[k] = f.Crashes[p].Round
		}
		nMask := ^uint64(0) >> uint(64-f.N)
		for _, p := range procs {
			c := f.Crashes[p]
			b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(p))]...)
			b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Round))]...)
			var word uint64
			if dw := c.Delivered.Words(); len(dw) > 0 {
				word = dw[0]
			}
			dead := uint64(1) << uint(p)
			for k, q := range procs {
				if rounds[k] <= c.Round {
					dead |= 1 << uint(q)
				}
			}
			binary.LittleEndian.PutUint64(tmp[:8], word&nMask&^dead)
			b = append(b, tmp[:8]...)
		}
		return b
	}
	for _, p := range procs {
		c := f.Crashes[p]
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(p))]...)
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Round))]...)
		for wi := 0; wi < w; wi++ {
			var word uint64
			dw := c.Delivered.Words()
			if wi < len(dw) {
				word = dw[wi]
			}
			// Strip the unobservable bits word by word: self-delivery and
			// receivers dead at receipt time.
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
	return b
}

// Fingerprint returns the pattern's canonical binary key as a string —
// AppendFingerprint materialized for map use.
func (f *FailurePattern) Fingerprint() string {
	return string(f.AppendFingerprint(make([]byte, 0, 64)))
}

// Fingerprint returns a canonical identity key for the adversary:
// structurally equal adversaries — equal inputs and observably equal
// failure patterns, however they were built — share a fingerprint.
// Caches keyed by adversary should use it instead of pointer identity.
//
// The key is a compact binary encoding (varints plus raw delivery-mask
// words), not a rendered string: it is hashed by the map that holds it
// and compared byte-wise, never parsed or displayed. The failure-pattern
// suffix is FailurePattern.AppendFingerprint, so unobservable deliveries
// are stripped during encoding without materializing the canonical
// pattern.
func (a *Adversary) Fingerprint() string {
	f := a.Pattern
	w := (f.N + 63) >> 6
	b := make([]byte, 0, 2*binary.MaxVarintLen64*(len(a.Inputs)+1)+len(f.Crashes)*(2*binary.MaxVarintLen64+8*w))
	var tmp [binary.MaxVarintLen64]byte
	b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(len(a.Inputs)))]...)
	for _, v := range a.Inputs {
		b = append(b, tmp[:binary.PutVarint(tmp[:], int64(v))]...)
	}
	return string(f.AppendFingerprint(b))
}
