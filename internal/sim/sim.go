// Package sim runs decision protocols against adversaries in the
// synchronous crash-failure model and records every decision.
//
// Because every protocol in this repository is a full-information protocol
// (§2.1 of the paper), a protocol is a pure decision rule over the
// knowledge graph: the simulator computes the graph once and consults the
// rule at every node ⟨i,m⟩ with i active and undecided. This "oracle"
// simulator is deterministic and is the reference semantics; the
// goroutine-and-channels engine in internal/runtime is cross-checked
// against it.
package sim

import (
	"fmt"
	"unsafe"

	"setconsensus/internal/bitset"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// Protocol is a deterministic full-information decision protocol.
type Protocol interface {
	// Name identifies the protocol in reports, e.g. "Optmin[2]".
	Name() string
	// Decide is consulted for each active, still-undecided process i at
	// each time m in increasing order. Returning ok=true decides value v
	// at time m. The rule may only use information visible in ⟨i,m⟩'s
	// view; that discipline is enforced by the indistinguishability tests
	// in internal/unbeat, not by this interface.
	Decide(g *knowledge.Graph, i model.Proc, m int) (v model.Value, ok bool)
	// WorstCaseDecisionTime bounds the time by which every correct
	// process has decided, in every run of the protocol's context; the
	// simulator uses it as the horizon.
	WorstCaseDecisionTime() int
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
// full horizon. Exhaustive sweeps that run many protocols against the
// same adversary share one graph this way.
func RunWithGraph(p Protocol, g *knowledge.Graph) *Result {
	adv := g.Adv
	horizon := g.Horizon
	res := &Result{ProtocolName: p.Name(), Adv: adv, Graph: g, Decisions: make([]*Decision, adv.N())}
	// One slab for all decisions: at most n are made, and the capacity is
	// never exceeded, so the interior pointers stay valid.
	slab := make([]Decision, 0, adv.N())
	for m := 0; m <= horizon; m++ {
		for i := 0; i < adv.N(); i++ {
			if res.Decisions[i] != nil || !adv.Pattern.Active(i, m) {
				continue
			}
			if v, ok := p.Decide(g, i, m); ok {
				slab = append(slab, Decision{Value: v, Time: m})
				res.Decisions[i] = &slab[len(slab)-1]
			}
		}
	}
	return res
}

// Scratch is reusable decision storage for RunWithGraphInto and for
// backends converting foreign decision records into []*Decision without
// per-run allocation. One Scratch serves one goroutine; Reset hands out
// the pointer slice for a run of n processes and Put records decisions
// into a slab whose capacity Reset guarantees, so the interior pointers
// stay valid for the whole run. Everything returned aliases the scratch
// and is overwritten by the next Reset.
type Scratch struct {
	ptrs []*Decision
	slab []Decision
	cr   []int // crash round per process, hoisted from the pattern
}

// Reset prepares storage for one run over n processes and returns the
// nil-filled Decisions slice. At most n Puts may follow before the next
// Reset.
func (sc *Scratch) Reset(n int) []*Decision {
	if cap(sc.ptrs) < n {
		sc.ptrs = make([]*Decision, n)
	}
	sc.ptrs = sc.ptrs[:n]
	for i := range sc.ptrs {
		sc.ptrs[i] = nil
	}
	if cap(sc.slab) < n {
		sc.slab = make([]Decision, 0, n)
	}
	sc.slab = sc.slab[:0]
	return sc.ptrs
}

// Put appends d to the slab and records it as process i's decision.
func (sc *Scratch) Put(i model.Proc, d Decision) {
	sc.slab = append(sc.slab, d)
	sc.ptrs[i] = &sc.slab[len(sc.slab)-1]
}

// Bytes reports the capacity the scratch currently pins, for the
// engine's memory governor. Capacities only grow, so the delta between
// two snapshots is the allocation the interval created.
func (sc *Scratch) Bytes() int64 {
	return int64(cap(sc.ptrs))*int64(unsafe.Sizeof((*Decision)(nil))) +
		int64(cap(sc.slab))*int64(unsafe.Sizeof(Decision{})) +
		int64(cap(sc.cr))*int64(unsafe.Sizeof(int(0)))
}

// RunWithGraphInto is RunWithGraph with pooled storage: it fills res in
// place and stores all decisions in sc, allocating nothing once the
// scratch has warmed up. res.Decisions aliases sc and is valid only
// until the next Reset/RunWithGraphInto on the same scratch — callers
// that retain results use RunWithGraph. The crash rounds are hoisted
// out of the pattern in one walk of its crashes per run, so the inner
// loop does no pattern lookups the protocol itself doesn't make.
func RunWithGraphInto(p Protocol, g *knowledge.Graph, sc *Scratch, res *Result) {
	adv, horizon := g.Adv, g.Horizon
	n := adv.N()
	decs := sc.Reset(n)
	if cap(sc.cr) < n {
		sc.cr = make([]int, n)
	}
	sc.cr = sc.cr[:n]
	for i := range sc.cr {
		sc.cr[i] = model.NoCrash
	}
	for _, c := range adv.Pattern.Crashes {
		sc.cr[c.Proc] = c.Round
	}
	for m := 0; m <= horizon; m++ {
		for i := 0; i < n; i++ {
			if decs[i] != nil || sc.cr[i] <= m {
				continue
			}
			if v, ok := p.Decide(g, i, m); ok {
				sc.Put(i, Decision{Value: v, Time: m})
			}
		}
	}
	res.ProtocolName, res.Adv, res.Graph, res.Decisions = p.Name(), adv, g, decs
}

// DecisionTime returns the time at which i decided, or −1.
func (r *Result) DecisionTime(i model.Proc) int {
	if r.Decisions[i] == nil {
		return -1
	}
	return r.Decisions[i].Time
}

// AppendDecidedValues adds the values decided by the given processes
// into dst and returns dst. It is the allocation-free form of
// DecidedValues for check paths that verify every run of a sweep with
// one reused set.
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
		if !r.Adv.Pattern.Correct(i) {
			continue
		}
		d := r.Decisions[i]
		if d == nil {
			return -1
		}
		if d.Time > max {
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
