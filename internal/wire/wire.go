// Package wire implements the efficient protocol of Appendix E (Lemma 6):
// instead of full-information views, processes gossip O(log n)-bit facts,
// with every process sending every other process O(n log n) bits over the
// whole run, while reconstructing exactly the knowledge the decision
// rules consume — seen/hidden classification, hidden capacity, minima,
// known failures, and persistence.
//
// Fact set (each reported a bounded number of times per sender):
//
//   - value(j)=v   — j's initial value; once per (sender, j);
//   - myMiss(j)=ρ  — "I personally first missed j's round-ρ message";
//     once per (sender, j). It is crash evidence (j crashed in a round
//     ≤ ρ) and, by its absence from a sender's stream, receipt evidence;
//   - crash(j)≤ρ   — relayed crash bound; emitted on improvement, so at
//     most twice per (sender, j) (bounds only take values c and c+1 for
//     true crash round c);
//   - seen(j)=ℓ    — "⟨j,ℓ⟩ is seen" (a message chain from it exists);
//     emitted once j is a known crasher and the bound improved: at most
//     twice per (sender, j);
//   - alive        — the empty heartbeat.
//
// Receipt deduction: links are reliable, so when i receives x's round-ρ
// message it holds x's complete personal fact stream; if that stream
// contains no myMiss(j)=ρ′ with ρ′ ≤ ρ−1, then x received j's round-(ρ−1)
// message, so ⟨j,ρ−2⟩ is seen by i — exactly the Lamport chain j → x → i
// of the full-information protocol, with no timing lag. Longer chains
// arrive as relayed seen facts, emitted the round after the deduction,
// which matches full-information propagation timing. The equivalence
// tests against the oracle simulator check this exhaustively.
//
// Decisions: State.Decide is the one compact form of Optmin[k] and
// u-Pmin[k] (Appendix E), read off the state and its snapshot of the
// previous time. Run here and the goroutine engine in internal/runtime
// both decide by it, into a sim.Scratch the caller passes in.
package wire

import (
	"fmt"
	"slices"
	"sort"

	"setconsensus/internal/core"
	"setconsensus/internal/model"
)

// FactKind tags a gossiped fact.
type FactKind byte

// The wire fact kinds. Alive is represented by an empty fact list.
const (
	FactValue FactKind = iota + 1
	FactMyMiss
	FactCrash
	FactSeen
)

// Fact is one gossiped statement.
type Fact struct {
	Kind FactKind
	Proc model.Proc // the process the fact is about
	Arg  int        // value, miss round, crash bound, or seen layer
}

func (f Fact) String() string {
	switch f.Kind {
	case FactValue:
		return fmt.Sprintf("value(%d)=%d", f.Proc, f.Arg)
	case FactMyMiss:
		return fmt.Sprintf("myMiss(%d)=r%d", f.Proc, f.Arg)
	case FactCrash:
		return fmt.Sprintf("crash(%d)≤r%d", f.Proc, f.Arg)
	case FactSeen:
		return fmt.Sprintf("seen(%d)=%d", f.Proc, f.Arg)
	}
	return fmt.Sprintf("fact(%d,%d,%d)", f.Kind, f.Proc, f.Arg)
}

// Message is one round's fact bundle from one sender.
type Message struct {
	From  model.Proc
	Round int
	Facts []Fact
}

// senderTrack is what a process remembers about one peer's fact stream.
type senderTrack struct {
	// myMissRound[j] = round of this sender's personal myMiss(j) fact,
	// or NoCrash. Personal facts are never relayed, so absence up to a
	// received round is receipt evidence.
	myMissRound []int
	// vals[j] = value this sender has reported for j (−1 none); the
	// union equals the sender's Vals at its last send time.
	vals []model.Value
	// lastHeardRound = last round we received from this sender.
	lastHeardRound int
}

// State is the compact-protocol knowledge state of one process. It
// mirrors the queries of knowledge.Graph, reconstructed from facts, and
// keeps a snapshot of the previous time (Snapshot), which Decide and
// Persists read.
type State struct {
	n    int
	self model.Proc
	time int

	val       []model.Value // known initial values, −1 unknown
	lastSeen  []int         // max ℓ with ⟨j,ℓ⟩ seen, −1 if none
	missKnown []int         // earliest known crash bound for j
	myMiss    []int         // personal first-miss round per j
	senders   []*senderTrack

	// emission bookkeeping (diff gossip)
	sentValue []bool
	sentSeen  []int
	sentCrash []int
	pending   []Fact

	// The snapshot of the previous time: Low(k), HC and Min then, and
	// the known values (val) then.
	prevLow bool
	prevHC  int
	prevMin model.Value
	prevVal []model.Value
}

// NewState initializes process self of n processes with its input value.
func NewState(n int, self model.Proc, input model.Value) *State {
	s := &State{n: n, self: self}
	s.val = make([]model.Value, n)
	s.lastSeen = make([]int, n)
	s.missKnown = make([]int, n)
	s.myMiss = make([]int, n)
	s.sentValue = make([]bool, n)
	s.sentSeen = make([]int, n)
	s.sentCrash = make([]int, n)
	s.senders = make([]*senderTrack, n)
	for j := 0; j < n; j++ {
		s.val[j] = -1
		s.lastSeen[j] = -1
		s.missKnown[j] = model.NoCrash
		s.myMiss[j] = model.NoCrash
		s.sentSeen[j] = -1
		s.sentCrash[j] = model.NoCrash
		tr := &senderTrack{myMissRound: make([]int, n), vals: make([]model.Value, n), lastHeardRound: -1}
		for q := 0; q < n; q++ {
			tr.myMissRound[q] = model.NoCrash
			tr.vals[q] = -1
		}
		s.senders[j] = tr
	}
	s.val[self] = input
	s.lastSeen[self] = 0
	s.pending = append(s.pending, Fact{Kind: FactValue, Proc: self, Arg: input})
	return s
}

// Outbox returns the facts to send in round time+1 (the diff since the
// last send). An empty slice is the "alive" heartbeat.
func (s *State) Outbox() []Fact {
	out := s.pending
	s.pending = nil
	return out
}

// Deliver ingests the messages received at time `round` (sent in round
// `round`) and advances local time. Senders absent from msgs were missed
// this round.
func (s *State) Deliver(round int, msgs []Message) {
	heard := make([]bool, s.n)
	heard[s.self] = true
	for _, m := range msgs {
		heard[m.From] = true
	}
	s.lastSeen[s.self] = round

	// Personal misses observed this round.
	for j := 0; j < s.n; j++ {
		if heard[j] || s.myMiss[j] != model.NoCrash {
			continue
		}
		s.myMiss[j] = round
		s.pending = append(s.pending, Fact{Kind: FactMyMiss, Proc: j, Arg: round})
		s.noteCrash(j, round)
	}

	// Ingest facts, then apply stream deductions.
	for _, m := range msgs {
		tr := s.senders[m.From]
		tr.lastHeardRound = round
		for _, f := range m.Facts {
			s.ingest(m.From, f)
		}
	}
	for _, m := range msgs {
		x := m.From
		// Direct receipt: x's round-`round` message conveys ⟨x,round−1⟩.
		s.noteSeen(x, round-1)
		if round < 2 {
			continue
		}
		// Stream deduction: no personal miss of j in rounds ≤ round−1
		// means x received j's round-(round−1) message — the chain
		// j → x → self conveys ⟨j, round−2⟩.
		tr := s.senders[x]
		for j := 0; j < s.n; j++ {
			if j == x || j == s.self {
				continue
			}
			if tr.myMissRound[j] > round-1 {
				s.noteSeen(j, round-2)
			}
		}
	}
	s.time = round
}

// ingest merges one fact from sender x.
func (s *State) ingest(x model.Proc, f Fact) {
	tr := s.senders[x]
	switch f.Kind {
	case FactValue:
		tr.vals[f.Proc] = f.Arg
		if s.val[f.Proc] == -1 {
			s.val[f.Proc] = f.Arg
			if !s.sentValue[f.Proc] && f.Proc != s.self {
				s.pending = append(s.pending, Fact{Kind: FactValue, Proc: f.Proc, Arg: f.Arg})
				s.sentValue[f.Proc] = true
			}
		}
	case FactMyMiss:
		if f.Arg < tr.myMissRound[f.Proc] {
			tr.myMissRound[f.Proc] = f.Arg
		}
		s.noteCrash(f.Proc, f.Arg)
	case FactCrash:
		s.noteCrash(f.Proc, f.Arg)
	case FactSeen:
		s.noteSeen(f.Proc, f.Arg)
	}
}

// noteCrash merges crash evidence "j crashed in a round ≤ ρ", relaying
// improvements and unlocking seen-fact emission for j.
func (s *State) noteCrash(j model.Proc, rho int) {
	if rho < s.missKnown[j] {
		s.missKnown[j] = rho
	}
	if s.missKnown[j] < s.sentCrash[j] && j != s.self {
		s.pending = append(s.pending, Fact{Kind: FactCrash, Proc: j, Arg: s.missKnown[j]})
		s.sentCrash[j] = s.missKnown[j]
	}
	s.maybeEmitSeen(j)
}

// noteSeen merges "⟨j,ℓ⟩ is seen".
func (s *State) noteSeen(j model.Proc, l int) {
	if l > s.lastSeen[j] {
		s.lastSeen[j] = l
	}
	s.maybeEmitSeen(j)
}

// maybeEmitSeen relays the seen bound for known crashers. Before a crash
// is known, every receiver deduces the bound from streams alone; after,
// the bound is frozen, so at most two emissions occur per process.
func (s *State) maybeEmitSeen(j model.Proc) {
	if j == s.self || s.missKnown[j] == model.NoCrash {
		return
	}
	if s.lastSeen[j] > s.sentSeen[j] {
		s.pending = append(s.pending, Fact{Kind: FactSeen, Proc: j, Arg: s.lastSeen[j]})
		s.sentSeen[j] = s.lastSeen[j]
	}
}

// ---- knowledge queries (mirroring knowledge.Graph) ----

// Time returns the local time (rounds delivered).
func (s *State) Time() int { return s.time }

// Vals returns the set of known initial values in ascending order.
func (s *State) Vals() []model.Value {
	seen := map[model.Value]bool{}
	var out []model.Value
	for j := 0; j < s.n; j++ {
		if v := s.val[j]; v >= 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Min returns the minimal known value.
func (s *State) Min() model.Value {
	min := model.Value(1 << 30)
	for j := 0; j < s.n; j++ {
		if s.val[j] >= 0 && s.val[j] < min {
			min = s.val[j]
		}
	}
	return min
}

// Low reports Min < k.
func (s *State) Low(k int) bool { return s.Min() < k }

// Hidden reports whether ⟨j,ℓ⟩ is hidden from the local process now:
// not seen (ℓ beyond the seen bound) and not provably crashed before ℓ.
func (s *State) Hidden(j model.Proc, l int) bool {
	if j == s.self {
		return false
	}
	return l > s.lastSeen[j] && s.missKnown[j] > l
}

// HiddenCount counts hidden layer-ℓ nodes.
func (s *State) HiddenCount(l int) int {
	c := 0
	for j := 0; j < s.n; j++ {
		if s.Hidden(j, l) {
			c++
		}
	}
	return c
}

// HiddenCapacity returns HC at the current time.
func (s *State) HiddenCapacity() int {
	hc := s.n
	for l := 0; l <= s.time; l++ {
		if c := s.HiddenCount(l); c < hc {
			hc = c
		}
	}
	return hc
}

// FailuresKnown counts processes with known crash evidence.
func (s *State) FailuresKnown() int {
	d := 0
	for j := 0; j < s.n; j++ {
		if s.missKnown[j] != model.NoCrash {
			d++
		}
	}
	return d
}

// KnownCrashRound returns the earliest known crash bound for j.
func (s *State) KnownCrashRound(j model.Proc) int { return s.missKnown[j] }

// LastSeen returns the seen bound for j.
func (s *State) LastSeen(j model.Proc) int { return s.lastSeen[j] }

// Persists implements Definition 3 on the compact state. Its first
// disjunct, "I knew v already", reads the snapshot of time−1, and since
// the local process's own view at time−1 is exactly that, the count of
// directly seen views knowing v goes over the other processes only.
func (s *State) Persists(v model.Value, t int) bool {
	if s.time > 0 && v >= 0 && slices.Contains(s.prevVal, v) { // −1 marks an unknown value
		return true
	}
	need := t - s.FailuresKnown()
	if need <= 0 {
		return true
	}
	if s.time == 0 {
		return false
	}
	count := 0
	for j := 0; j < s.n; j++ {
		tr := s.senders[j]
		if j == s.self || tr.lastHeardRound != s.time {
			continue // ⟨j,time−1⟩ not seen directly
		}
		if slices.Contains(tr.vals, v) {
			count++
		}
	}
	return count >= need
}

// Snapshot records the current time for the next time's Decide and
// Persists: whether Low(k) holds, the hidden capacity, the minimum and
// the known values. Call it before each round's Outbox.
func (s *State) Snapshot(k int) {
	s.prevLow, s.prevHC, s.prevMin = s.Low(k), s.HiddenCapacity(), s.Min()
	s.prevVal = append(s.prevVal[:0], s.val...)
}

// Decide is the one compact form of the paper's decision rules, asked at
// the process's current time m while it is active and undecided. Under
// RuleOptmin it decides Min once Low(k) or HC < k holds (Optmin[k]).
// Under RuleUPmin it decides Min when that holds and Min persists, else
// the previous time's Min when it held then, else Min at the deadline
// ⌊t/k⌋+1 (u-Pmin[k]); the previous time is the last Snapshot. core
// states both rules over the knowledge graph, and the equivalence tests
// hold this form to its decisions.
func (s *State) Decide(rule Rule, p core.Params, m int) (model.Value, bool) {
	ready := s.Low(p.K) || s.HiddenCapacity() < p.K
	switch rule {
	case RuleOptmin:
		if ready {
			return s.Min(), true
		}
	case RuleUPmin:
		if min := s.Min(); ready && s.Persists(min, p.T) {
			return min, true
		}
		if m > 0 && (s.prevLow || s.prevHC < p.K) {
			return s.prevMin, true
		}
		if m == p.T/p.K+1 {
			return s.Min(), true
		}
	}
	return 0, false
}
