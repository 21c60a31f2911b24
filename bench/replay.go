package main

import (
	"context"
	"fmt"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/check"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/sim"
)

// spanEvery is the adversary sampling stride of replay spans.
const spanEvery = 64

// replayStats is the per-layer work and busy time of one replay.
type replayStats struct {
	adv, runs, verifies, violations, folds int
	fullBuilds, patches, revives           int

	enum, fingerprint, newGraph, sim, check, agg time.Duration
	// Builder.Build time, split by the kind of build TakeCounts reports.
	build, fullBuild, patchBuild, reviveBuild time.Duration
	wall                                      time.Duration

	// cacheGraphs records which knowledge path fed the protocol runs:
	// Fingerprint + knowledge.New (the engine graph cache) or the Builder.
	cacheGraphs bool
}

// knowledgeBusy is the knowledge time on the path the engine takes.
func (st *replayStats) knowledgeBusy() time.Duration {
	if st.cacheGraphs {
		return st.fingerprint + st.newGraph
	}
	return st.build
}

// stageSum is the busy time of every layer on the engine's path.
func (st *replayStats) stageSum() time.Duration {
	return st.enum + st.knowledgeBusy() + st.sim + st.check + st.agg
}

// engineCachesGraphs reports whether an engine built from the default
// parameters — as the CLI builds it — takes its graphs from the graph
// cache (Fingerprint + knowledge.New per adversary) instead of a
// per-worker knowledge.Builder.
func engineCachesGraphs() bool { return setconsensus.DefaultEngineParams().GraphCache > 0 }

// replay folds src through every layer of an aggregating sweep on one
// goroutine, calling each layer's public function in the engine's order:
// enumerate, build the knowledge graph, run each protocol, verify, fold.
// t is the crash bound of every run; setconsensus.PatternCrashBound, the
// CLI's sweep default, takes each adversary's own failure count.
// cacheGraphs picks the graph that feeds the runs.
//
// An untimed replay builds only that graph and reads no clock: its wall
// time is the engine's path done directly, with no executor. A timed
// replay also builds the other path's graph, sums busy time per call and
// records a span tree for every spanEvery-th adversary into tr.
func replay(ctx context.Context, src setconsensus.Source, refs []string, k, t int, cacheGraphs, timed bool, tr *tracer) (*setconsensus.Summary, *replayStats, error) {
	specs := make([]*setconsensus.ProtocolSpec, len(refs))
	tasks := make([]setconsensus.Task, len(refs))
	for i, ref := range refs {
		spec, err := setconsensus.LookupProtocol(ref)
		if err != nil {
			return nil, nil, err
		}
		specs[i], tasks[i] = spec, spec.Task(k)
	}
	type protos struct {
		rules   []setconsensus.Protocol
		horizon int
	}
	memo := make(map[setconsensus.Params]*protos)
	protosFor := func(p setconsensus.Params) (*protos, error) {
		if m, ok := memo[p]; ok {
			return m, nil
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		m := &protos{rules: make([]setconsensus.Protocol, len(specs))}
		for i, spec := range specs {
			rule, err := spec.New(p)
			if err != nil {
				return nil, err
			}
			m.rules[i] = rule
			m.horizon = max(m.horizon, spec.WorstCaseTime(p))
		}
		memo[p] = m
		return m, nil
	}

	base := time.Now()
	if tr != nil {
		base = tr.base
	}
	clock := func() time.Duration {
		if !timed {
			return 0
		}
		return time.Since(base)
	}
	sum := agg.New(src.Label(), refs)
	accs := make([]agg.Acc, len(refs))
	builder := knowledge.NewBuilder()
	var (
		simScratch   sim.Scratch
		res          sim.Result
		checkScratch check.Scratch
	)
	st := &replayStats{cacheGraphs: cacheGraphs}
	start := time.Now()
	last := clock()
	for adv := range src.Seq() {
		if st.adv%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		t0 := clock()
		st.enum += t0 - last
		var root, op int
		sampled := timed && tr != nil && st.adv%spanEvery == 0
		if sampled {
			op = tr.newOp()
			root = tr.addRel(0, op, "replay.adversary", t0, t0) // end set below
			tr.addRel(root, op, "enum", last, t0)
		}
		p := setconsensus.Params{N: adv.N(), T: t, K: k}
		if t == setconsensus.PatternCrashBound {
			p.T = adv.Pattern.NumFailures()
		}
		ps, err := protosFor(p)
		if err != nil {
			return nil, nil, err
		}

		var cached, built *knowledge.Graph
		t1 := clock()
		if cacheGraphs || timed {
			_ = adv.Fingerprint() // the graph cache's key
			t2 := clock()
			cached = knowledge.New(adv, ps.horizon)
			t3 := clock()
			st.fingerprint += t2 - t1
			st.newGraph += t3 - t2
			if sampled {
				tr.addRel(root, op, "knowledge.fingerprint", t1, t2)
				tr.addRel(root, op, "knowledge.new", t2, t3)
			}
			t1 = t3
		}
		if !cacheGraphs || timed {
			built = builder.Build(adv, ps.horizon)
			t2 := clock()
			full, revived, patched := builder.TakeCounts()
			st.fullBuilds += full
			st.revives += revived
			st.patches += patched
			st.build += t2 - t1
			switch {
			case full > 0:
				st.fullBuild += t2 - t1
			case patched > 0:
				st.patchBuild += t2 - t1
			case revived > 0:
				st.reviveBuild += t2 - t1
			}
			if sampled {
				tr.addRel(root, op, "knowledge.build", t1, t2)
			}
			t1 = t2
		}
		g := built
		if cacheGraphs {
			// The runs use the cache path's graph; the Builder's goes back
			// at once so the next adversary can still patch it.
			if built != nil {
				built.Release()
			}
			g = cached
		}

		tRun := t1
		for i := range refs {
			sim.RunWithGraphInto(ps.rules[i], g, &simScratch, &res)
			o := agg.Obs{Time: res.MaxCorrectDecisionTime()}
			tSim := clock()
			if o.Time >= 0 {
				o.Violation = checkScratch.VerifyRun(&res, tasks[i]) != nil
				st.verifies++
				if o.Violation {
					st.violations++
				}
			}
			tCheck := clock()
			accs[i].Observe(o)
			tAgg := clock()
			st.sim += tSim - tRun
			st.check += tCheck - tSim
			st.agg += tAgg - tCheck
			if sampled {
				tr.addRel(root, op, "sim", tRun, tSim)
				tr.addRel(root, op, "check", tSim, tCheck)
				tr.addRel(root, op, "agg", tCheck, tAgg)
			}
			tRun = tAgg
		}
		st.runs += len(refs)
		st.folds += len(refs)
		if !cacheGraphs {
			built.Release()
		}
		last = clock()
		if sampled {
			tr.end(root, last)
		}
		st.adv++
	}
	tFlush := clock()
	for i := range accs {
		accs[i].FlushTo(sum.Protocols[i])
	}
	st.agg += clock() - tFlush
	st.wall = time.Since(start)
	if st.adv == 0 {
		return nil, nil, fmt.Errorf("bench: replay of %s swept no adversaries", src.Label())
	}
	return sum, st, nil
}
