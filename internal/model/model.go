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
	"slices"
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

// ValueLimit bounds every input: an adversary's inputs lie in
// 0..ValueLimit−1. A knowledge graph sizes each node's value set by the
// largest input, one bit per value, so an input's magnitude, not the
// number of distinct inputs, sets its memory; the bound caps a value
// set at 2^14 words. Adversary.Validate, enum.Space.Validate and the
// random workload all reject inputs past it.
const ValueLimit = 1 << 20

// Crash describes the failure of one process: which process, the round
// in which it crashes (≥ 1), and the set of processes that still receive
// its crash-round message. Deliveries to itself are meaningless and
// ignored.
type Crash struct {
	Proc      Proc
	Round     int
	Delivered *bitset.Set
}

// FailurePattern lists the crash of each faulty process. It corresponds
// to the layered graph F of the paper restricted to crash failures.
// Crashes is sorted by strictly increasing Proc: SetCrash and RemoveCrash
// keep it so, and Validate rejects a slice built by hand out of order.
// A pattern crashes few processes, so every lookup scans the slice.
type FailurePattern struct {
	N       int
	Crashes []Crash
}

// NewFailurePattern returns a failure-free pattern over n processes.
func NewFailurePattern(n int) *FailurePattern {
	return &FailurePattern{N: n}
}

// Clone returns a deep copy of the pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	c := &FailurePattern{N: f.N, Crashes: make([]Crash, len(f.Crashes))}
	for i, cr := range f.Crashes {
		c.Crashes[i] = Crash{Proc: cr.Proc, Round: cr.Round, Delivered: cr.Delivered.Clone()}
	}
	return c
}

// Crash returns p's crash, and false when p never crashes.
func (f *FailurePattern) Crash(p Proc) (Crash, bool) {
	for _, c := range f.Crashes {
		if c.Proc == p {
			return c, true
		}
	}
	return Crash{}, false
}

// SetCrash records c as the crash of c.Proc, replacing any crash the
// process already had and keeping Crashes in order.
func (f *FailurePattern) SetCrash(c Crash) {
	i := 0
	for i < len(f.Crashes) && f.Crashes[i].Proc < c.Proc {
		i++
	}
	if i < len(f.Crashes) && f.Crashes[i].Proc == c.Proc {
		f.Crashes[i] = c
		return
	}
	f.Crashes = slices.Insert(f.Crashes, i, c)
}

// RemoveCrash makes p correct.
func (f *FailurePattern) RemoveCrash(p Proc) {
	f.Crashes = slices.DeleteFunc(f.Crashes, func(c Crash) bool { return c.Proc == p })
}

// CrashRound returns the round in which p crashes, or NoCrash.
func (f *FailurePattern) CrashRound(p Proc) int {
	if c, ok := f.Crash(p); ok {
		return c.Round
	}
	return NoCrash
}

// Faulty reports whether p crashes at all.
func (f *FailurePattern) Faulty(p Proc) bool {
	_, ok := f.Crash(p)
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
	s := bitset.Full(f.N)
	for _, c := range f.Crashes {
		s.Remove(c.Proc)
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
	c, faulty := f.Crash(from)
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

// Validate checks structural sanity: process indices in range and
// strictly increasing, crash rounds ≥ 1, deliveries only to processes in
// range, and at most t crashes if t ≥ 0 (pass t < 0 to skip the bound).
// It names the first bad crash in Crashes' order, and allocates nothing
// on a valid pattern.
func (f *FailurePattern) Validate(t int) error {
	if f.N < 2 {
		return fmt.Errorf("model: need n ≥ 2 processes, have %d", f.N)
	}
	if t >= 0 && len(f.Crashes) > t {
		return fmt.Errorf("model: %d crashes exceed bound t=%d", len(f.Crashes), t)
	}
	for i, c := range f.Crashes {
		p := c.Proc
		if p < 0 || p >= f.N {
			return fmt.Errorf("model: crash of out-of-range process %d", p)
		}
		if i > 0 && p <= f.Crashes[i-1].Proc {
			return fmt.Errorf("model: crash of process %d listed after process %d", p, f.Crashes[i-1].Proc)
		}
		if c.Round < 1 {
			return fmt.Errorf("model: process %d crashes in round %d < 1", p, c.Round)
		}
		words := c.Delivered.Words()
		for wi := f.N >> 6; wi < len(words); wi++ {
			word := words[wi]
			if wi == f.N>>6 {
				word &^= 1<<uint(f.N&63) - 1 // the in-range receivers
			}
			if word != 0 {
				return fmt.Errorf("model: process %d delivers to out-of-range process %d", p, wi<<6+bits.TrailingZeros64(word))
			}
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
	b := make([]byte, 0, 16+24*len(f.Crashes))
	b = append(b, "crash("...)
	for i, c := range f.Crashes {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, int64(c.Proc), 10)
		b = append(b, "@r"...)
		b = strconv.AppendInt(b, int64(c.Round), 10)
		b = append(b, "→"...)
		b = append(b, c.Delivered.String()...)
	}
	b = append(b, ')')
	return string(b)
}

// Canonical returns a copy of the pattern with unobservable deliveries
// stripped: a crash-round delivery to a receiver that is already dead at
// receipt time is never read, and delivery to oneself is implicit. Two
// patterns whose Canonical forms render identically are observably equal
// — no protocol can distinguish the runs they induce.
func (f *FailurePattern) Canonical() *FailurePattern {
	out := &FailurePattern{N: f.N, Crashes: make([]Crash, len(f.Crashes))}
	for i, c := range f.Crashes {
		d := bitset.New(f.N)
		c.Delivered.ForEach(func(q int) bool {
			if q != c.Proc && f.Active(q, c.Round) {
				d.Add(q)
			}
			return true
		})
		out.Crashes[i] = Crash{Proc: c.Proc, Round: c.Round, Delivered: d}
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

// Validate checks the adversary's structure (see FailurePattern.Validate),
// its crash bound t and its value domain {0..maxValue}: t < 0 skips the
// bound, and maxValue < 0 skips the domain's upper end, but never the
// bounds every input obeys — no input is negative or reaches
// ValueLimit. It allocates nothing on a valid adversary.
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
	for p, v := range a.Inputs {
		if maxValue >= 0 && (v < 0 || v > maxValue) {
			return fmt.Errorf("model: input %d of process %d outside {0..%d}", v, p, maxValue)
		}
		if v < 0 {
			return fmt.Errorf("model: negative input %d of process %d", v, p)
		}
		if v >= ValueLimit {
			return fmt.Errorf("model: input %d of process %d outside {0..%d}", v, p, ValueLimit-1)
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
// delivery-mask words, in crasher order; it is an opaque key to hash
// and compare, never to parse. The call itself allocates nothing beyond
// growing b, so hot loops can key millions of patterns through one
// reused buffer.
func (f *FailurePattern) AppendFingerprint(b []byte) []byte {
	w := (f.N + 63) >> 6
	var tmp [binary.MaxVarintLen64]byte
	if w == 1 {
		// Single-word pattern: the unobservable bits — self-delivery and
		// receivers dead at receipt time, the latter exactly the crashers
		// with round ≤ this crash's round — strip with one mask instead
		// of a per-bit liveness test.
		nMask := ^uint64(0) >> uint(64-f.N)
		for _, c := range f.Crashes {
			b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Proc))]...)
			b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Round))]...)
			var word uint64
			if dw := c.Delivered.Words(); len(dw) > 0 {
				word = dw[0]
			}
			dead := uint64(1) << uint(c.Proc)
			for _, o := range f.Crashes {
				if o.Round <= c.Round {
					dead |= 1 << uint(o.Proc)
				}
			}
			binary.LittleEndian.PutUint64(tmp[:8], word&nMask&^dead)
			b = append(b, tmp[:8]...)
		}
		return b
	}
	for _, c := range f.Crashes {
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Proc))]...)
		b = append(b, tmp[:binary.PutUvarint(tmp[:], uint64(c.Round))]...)
		dw := c.Delivered.Words()
		for wi := 0; wi < w; wi++ {
			var word uint64
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
				if q != c.Proc && q < f.N && f.Active(q, c.Round) {
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
