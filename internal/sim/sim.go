// Package sim runs decision protocols against adversaries in the
// synchronous crash-failure model and records every decision.
//
// Because every protocol in this repository is a full-information protocol
// (§2.1 of the paper), a protocol is a pure decision rule over the
// knowledge graph: the simulator computes the graph once and consults the
// rule at every node ⟨i,m⟩ with i active and undecided — one time step
// at a time, the step's candidates as one word mask, and in one call
// for a protocol with a StepRule. The run records a decider mask beside
// its decisions, which internal/check verifies from. This "oracle"
// simulator is deterministic and is the reference semantics; the
// goroutine-and-channels engine in internal/runtime is cross-checked
// against it.
package sim

import (
	"fmt"
	"math/bits"
	"unsafe"

	"setconsensus/internal/bitset"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// Protocol is a deterministic full-information decision protocol: a
// decision rule over the knowledge graph, consulted at the nodes ⟨i,m⟩
// where i is active and still undecided.
//
// The run loop visits the times m = 0, 1, … in increasing order. At
// each it collects that time's candidates, the active and undecided
// processes, as one word mask, and stops at the first time with none.
// A protocol that also implements StepRule decides all of a time's
// candidates in one call; for any other protocol the loop calls Decide
// once per candidate, in increasing process order. Either way the
// decisions are the same: Decide is the oracle every step rule must
// agree with.
type Protocol interface {
	// Name identifies the protocol in reports, e.g. "Optmin[2]".
	Name() string
	// Decide is the rule at one node: for an active, still-undecided
	// process i at time m, returning ok=true decides value v at time m.
	// The rule may only use information visible in ⟨i,m⟩'s view; that
	// discipline is enforced by the indistinguishability tests in
	// internal/unbeat, not by this interface.
	Decide(g *knowledge.Graph, i model.Proc, m int) (v model.Value, ok bool)
	// WorstCaseDecisionTime bounds the time by which every correct
	// process has decided, in every run of the protocol's context; the
	// simulator uses it as the horizon.
	WorstCaseDecisionTime() int
}

// StepRule is the optional whole-step form of a Protocol's rule, for
// protocols whose rule reads per-time tables of the graph (Optmin and
// u-Pmin read the Min and hidden-capacity rows): one call per time
// instead of one Decide call per process.
type StepRule interface {
	// DecideStep decides at time m for the candidates in cand, a word
	// mask over the run's processes (bit i&63 of word i>>6, ⌈n/64⌉
	// words) holding those active and undecided at m; it is never
	// empty. It must leave set in cand exactly the candidates i for
	// which Decide(g, i, m) returns ok=true, and write each such i's
	// value to decs[i].Value. It must change no other bit of cand and no
	// other entry of decs; the run loop records the times.
	DecideStep(g *knowledge.Graph, m int, cand []uint64, decs []Decision)
}

// Decision records one process's irrevocable decision.
type Decision struct {
	Value model.Value
	Time  int
}

// Result is the outcome of running a protocol against an adversary.
type Result struct {
	ProtocolName string
	Adv          *model.Adversary
	Graph        *knowledge.Graph
	// Decisions[i] is nil if process i never decided (it crashed first,
	// or the protocol failed to decide within the horizon).
	Decisions []*Decision
	// Deciders, when non-nil, is the set of processes i with a non-nil
	// Decisions[i], as a word mask (bit i&63 of word i>>6, ⌈n/64⌉
	// words). The run loop records it beside the decisions, and
	// internal/check verifies from it; a Result assembled by hand may
	// leave it nil, and the checker then derives it from Decisions.
	Deciders []uint64
}

// Run executes p against adv up to p.WorstCaseDecisionTime() and returns
// all decisions. It never errors: absent decisions are visible in the
// Result and are judged by internal/check.
func Run(p Protocol, adv *model.Adversary) *Result {
	return RunToHorizon(p, adv, p.WorstCaseDecisionTime())
}

// RunToHorizon is Run with an explicit horizon (used by experiments that
// deliberately cut runs short, e.g. to examine prefixes).
func RunToHorizon(p Protocol, adv *model.Adversary, horizon int) *Result {
	return RunWithGraph(p, knowledge.New(adv, horizon))
}

// RunWithGraph runs p over an already-computed knowledge graph, to its
// full horizon, into fresh storage the Result keeps. Exhaustive sweeps
// that run many protocols against the same adversary share one graph
// this way.
func RunWithGraph(p Protocol, g *knowledge.Graph) *Result {
	run := new(struct {
		res Result
		sc  Scratch
	})
	RunWithGraphInto(p, g, &run.sc, &run.res)
	return &run.res
}

// Scratch is reusable decision storage for RunWithGraphInto and for
// backends converting foreign decision records into []*Decision without
// per-run allocation. One Scratch serves one goroutine. Reset hands out
// the pointer slice for a run of n processes; process i's decision
// lives in slot i of a slab of n Decisions, and a word mask of the
// processes that decided rides beside it. Everything returned aliases
// the scratch and is overwritten by the next Reset.
type Scratch struct {
	ptrs []*Decision
	slab []Decision
	// masks holds three ⌈n/64⌉-word masks: the deciders, and the run
	// loop's alive and candidate sets.
	masks []uint64
	w     int
}

// Reset prepares storage for one run over n processes and returns the
// nil-filled Decisions slice, with no process recorded as a decider.
func (sc *Scratch) Reset(n int) []*Decision {
	if cap(sc.ptrs) < n {
		sc.ptrs = make([]*Decision, n)
	}
	sc.ptrs = sc.ptrs[:n]
	// A run decides a few of n processes at most once each: nil only the
	// set entries, which skips a pointer-clearing call per run.
	for i, d := range sc.ptrs {
		if d != nil {
			sc.ptrs[i] = nil
		}
	}
	if cap(sc.slab) < n {
		sc.slab = make([]Decision, n)
	}
	sc.slab = sc.slab[:n]
	sc.w = (n + 63) >> 6
	if cap(sc.masks) < 3*sc.w {
		sc.masks = make([]uint64, 3*sc.w)
	}
	sc.masks = sc.masks[:3*sc.w]
	for x := 0; x < sc.w; x++ {
		sc.masks[x] = 0
	}
	return sc.ptrs
}

// Put records d as process i's decision.
func (sc *Scratch) Put(i model.Proc, d Decision) {
	sc.slab[i] = d
	sc.ptrs[i] = &sc.slab[i]
	sc.masks[i>>6] |= 1 << uint(i&63)
}

// Deciders returns the mask of the processes recorded since the last
// Reset, aliasing the scratch.
func (sc *Scratch) Deciders() []uint64 { return sc.masks[:sc.w:sc.w] }

// Bytes reports the capacity the scratch currently pins, for the
// engine's memory governor. Capacities only grow, so the delta between
// two snapshots is the allocation the interval created.
func (sc *Scratch) Bytes() int64 {
	return int64(cap(sc.ptrs))*int64(unsafe.Sizeof((*Decision)(nil))) +
		int64(cap(sc.slab))*int64(unsafe.Sizeof(Decision{})) +
		int64(cap(sc.masks))*int64(unsafe.Sizeof(uint64(0)))
}

// RunWithGraphInto is the run loop, with pooled storage: it fills res in
// place and stores all decisions and the decider mask in sc, allocating
// nothing once the scratch has warmed up. res.Decisions and
// res.Deciders alias sc and are valid only until the next
// Reset/RunWithGraphInto on the same scratch — callers that retain
// results use RunWithGraph.
//
// At each time m it removes the processes crashing in a round ≤ m from
// the alive set, takes the alive processes not yet decided as m's
// candidates, and stops at the first time with none: no later time can
// have one. A StepRule decides the candidates in one call; any other
// protocol is asked per candidate.
func RunWithGraphInto(p Protocol, g *knowledge.Graph, sc *Scratch, res *Result) {
	adv := g.Adv
	n := adv.N()
	decs := sc.Reset(n)
	w := sc.w
	deciders, alive, cand := sc.masks[:w:w], sc.masks[w:2*w:2*w], sc.masks[2*w:3*w:3*w]
	for x := range alive {
		alive[x] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		alive[w-1] = 1<<uint(r) - 1
	}
	step, _ := p.(StepRule)
	crashes, slab := adv.Pattern.Crashes, sc.slab
	for m, horizon := 0, g.Horizon; m <= horizon; m++ {
		for _, c := range crashes {
			if c.Round <= m {
				alive[c.Proc>>6] &^= 1 << uint(c.Proc&63)
			}
		}
		var any uint64
		for x := range cand {
			cand[x] = alive[x] &^ deciders[x]
			any |= cand[x]
		}
		if any == 0 {
			break
		}
		if step != nil {
			step.DecideStep(g, m, cand, slab)
		} else {
			decideEach(p, g, m, cand, slab)
		}
		for x, word := range cand {
			deciders[x] |= word
			for ; word != 0; word &= word - 1 {
				d := &slab[x<<6|bits.TrailingZeros64(word)]
				d.Time = m
				decs[x<<6|bits.TrailingZeros64(word)] = d
			}
		}
	}
	res.ProtocolName, res.Adv, res.Graph, res.Decisions, res.Deciders = p.Name(), adv, g, decs, deciders
}

// decideEach is the step of a protocol without a StepRule: Decide once
// per candidate, in increasing process order, keeping in cand the
// candidates that decide.
func decideEach(p Protocol, g *knowledge.Graph, m int, cand []uint64, decs []Decision) {
	for x, word := range cand {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if v, ok := p.Decide(g, x<<6|b, m); ok {
				decs[x<<6|b].Value = v
			} else {
				cand[x] &^= 1 << uint(b)
			}
		}
	}
}

// DecisionTime returns the time at which i decided, or −1.
func (r *Result) DecisionTime(i model.Proc) int {
	if r.Decisions[i] == nil {
		return -1
	}
	return r.Decisions[i].Time
}

// AppendDecidedValues adds the values decided by the given processes
// into dst and returns dst: the form of DecidedValues that fills a set
// the caller reuses.
func (r *Result) AppendDecidedValues(dst *bitset.Set, procs *bitset.Set) *bitset.Set {
	procs.ForEach(func(i int) bool {
		if d := r.Decisions[i]; d != nil {
			dst.Add(d.Value)
		}
		return true
	})
	return dst
}

// DecidedValues returns the set of values decided by the given processes
// (e.g. the correct set for nonuniform agreement, everyone for uniform).
func (r *Result) DecidedValues(procs *bitset.Set) *bitset.Set {
	return r.AppendDecidedValues(&bitset.Set{}, procs)
}

// AllDecidedValues returns the set of values decided by any process.
func (r *Result) AllDecidedValues() *bitset.Set {
	return r.DecidedValues(bitset.Full(r.Adv.N()))
}

// MaxCorrectDecisionTime returns the latest decision time among correct
// processes, or −1 if some correct process never decided.
func (r *Result) MaxCorrectDecisionTime() int {
	max := 0
	for i := 0; i < r.Adv.N(); i++ {
		// Only a missing decision or a later one can change the answer,
		// so only those ask the pattern whether i is correct.
		if d := r.Decisions[i]; (d == nil || d.Time > max) && r.Adv.Pattern.Correct(i) {
			if d == nil {
				return -1
			}
			max = d.Time
		}
	}
	return max
}

// String renders the decision table compactly.
func (r *Result) String() string {
	s := r.ProtocolName + ":"
	for i, d := range r.Decisions {
		if d == nil {
			s += fmt.Sprintf(" %d:⊥", i)
		} else {
			s += fmt.Sprintf(" %d:%d@%d", i, d.Value, d.Time)
		}
	}
	return s
}

// Func adapts a plain function (plus metadata) into a Protocol. It is the
// building block for the protocol-space search in internal/unbeat and for
// ablations.
type Func struct {
	ProtoName string
	Horizon   int
	Rule      func(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool)
}

// Name implements Protocol.
func (f *Func) Name() string { return f.ProtoName }

// WorstCaseDecisionTime implements Protocol.
func (f *Func) WorstCaseDecisionTime() int { return f.Horizon }

// Decide implements Protocol.
func (f *Func) Decide(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
	return f.Rule(g, i, m)
}
