package setconsensus_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	setconsensus "setconsensus"
)

// TestSweepSourceGoldenVsSlice is the acceptance comparison: on a small
// space, the streamed SweepSource must aggregate exactly the decisions
// the slice-based Sweep produces.
func TestSweepSourceGoldenVsSlice(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"optmin", "upmin", "floodmin"}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(1))

	advs, err := space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Sweep(context.Background(), refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := eng.NewAggregator("golden", refs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		golden.Add(r)
	}

	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.SweepSource(context.Background(), refs, src)
	if err != nil {
		t.Fatal(err)
	}

	want := golden.Summary()
	if sum.Runs() != want.Runs() || sum.Runs() != len(refs)*len(advs) {
		t.Fatalf("runs: source %d, slice %d, want %d", sum.Runs(), want.Runs(), len(refs)*len(advs))
	}
	for i, p := range sum.Protocols {
		w := want.Protocols[i]
		if p.Ref != w.Ref || p.Runs != w.Runs || p.Undecided != w.Undecided ||
			p.Violations != w.Violations || p.MaxTime != w.MaxTime || p.SumTime != w.SumTime {
			t.Errorf("protocol %s: source %+v, slice %+v", p.Ref, p, w)
		}
		if len(p.TimeHist) != len(w.TimeHist) {
			t.Errorf("protocol %s: histogram sizes differ", p.Ref)
		}
		for tm, n := range w.TimeHist {
			if p.TimeHist[tm] != n {
				t.Errorf("protocol %s: hist[%d] = %d, want %d", p.Ref, tm, p.TimeHist[tm], n)
			}
		}
		if p.Violations != 0 {
			t.Errorf("protocol %s: %d task violations on the exhaustive space", p.Ref, p.Violations)
		}
	}

	// The streaming variant emits exactly the Sweep result set.
	var want2, got []string
	for _, r := range results {
		want2 = append(want2, r.String())
	}
	if err := eng.SweepSourceStream(context.Background(), refs, src, func(r *setconsensus.Result) {
		got = append(got, r.String())
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want2)
	sort.Strings(got)
	if len(got) != len(want2) {
		t.Fatalf("stream emitted %d results, want %d", len(got), len(want2))
	}
	for i := range got {
		if got[i] != want2[i] {
			t.Fatalf("stream result set differs at %d:\n%s\n%s", i, got[i], want2[i])
		}
	}
}

// TestSweepSourceStreamsLargeSpace is the acceptance streaming check: an
// exhaustive space of ≥ 10k canonical adversaries sweeps straight off
// the iterator — no materialized slice anywhere in the path — and every
// run lands in the summary.
func TestSweepSourceStreamsLargeSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("large-space sweep skipped in -short mode")
	}
	space := setconsensus.Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}}
	count := 0
	for range space.All() {
		count++
	}
	if count < 10000 {
		t.Fatalf("space holds %d canonical adversaries, need ≥ 10000", count)
	}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(1))
	sum, err := eng.SweepSource(context.Background(), []string{"optmin"}, src)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adversaries() != count {
		t.Fatalf("summary saw %d adversaries, want %d", sum.Adversaries(), count)
	}
	p := sum.Protocols[0]
	if p.Undecided != 0 || p.Violations != 0 {
		t.Fatalf("optmin over the space: %d undecided, %d violations", p.Undecided, p.Violations)
	}
	t.Logf("streamed %d canonical adversaries: hist %s", count, p.HistString())
}

// TestSweepSourceProgressReportsTotal: every progress snapshot of a
// sweep over a counted source — a space, or a window of one — carries
// the source's Count as Total, and the final one reaches it.
func TestSweepSourceProgressReportsTotal(t *testing.T) {
	space, err := setconsensus.SpaceSource(setconsensus.Space{N: 3, T: 1, MaxRound: 2, Values: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(1), setconsensus.WithParallelism(2))
	for _, src := range []setconsensus.Source{space, setconsensus.RangeSource(space, 190, 20)} {
		want, _ := src.Count()
		var last setconsensus.SweepProgress
		_, err := eng.SweepSourceProgress(context.Background(), []string{"optmin"}, src, time.Millisecond,
			func(p setconsensus.SweepProgress) {
				if p.Total != want {
					t.Errorf("%s: snapshot %+v, want Total %d", src.Label(), p, want)
				}
				last = p
			})
		if err != nil {
			t.Fatal(err)
		}
		if last.Adversaries != want || last.Total != want {
			t.Errorf("%s: final snapshot %+v, want %d of %d", src.Label(), last, want, want)
		}
	}
}

// TestSweepSourceCancellation cancels after the first emitted result;
// the stream must abort promptly with ctx.Err().
func TestSweepSourceCancellation(t *testing.T) {
	space := setconsensus.Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithParallelism(2),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err = eng.SweepSourceStream(ctx, []string{"optmin", "upmin"}, src, func(*setconsensus.Result) {
		emitted++
		if emitted == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Prompt abort: nothing beyond the in-flight chunks may finish.
	if emitted > 2*64*2 {
		t.Fatalf("cancellation did not stop the stream: %d results", emitted)
	}
	if _, err := eng.SweepSource(ctx, []string{"optmin"}, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepSource on a dead context: %v", err)
	}
}

func TestSweepSourceInputErrors(t *testing.T) {
	eng := setconsensus.New()
	ctx := context.Background()
	src := setconsensus.SliceSource(setconsensus.NewBuilder(3, 0).MustBuild())
	if _, err := eng.SweepSource(ctx, nil, src); err == nil {
		t.Error("no protocols must error")
	}
	if _, err := eng.SweepSource(ctx, []string{"optmin"}, nil); err == nil {
		t.Error("nil source must error")
	}
	if err := eng.SweepSourceStream(ctx, []string{"optmin"}, nil, func(*setconsensus.Result) {}); err == nil {
		t.Error("nil source must error on the stream variant")
	}
	if _, err := eng.SweepSource(ctx, []string{"unknown"}, src); err == nil {
		t.Error("unknown protocol must error")
	}
	// Duplicate refs would fold two runs per adversary into one summary
	// row; aggregated sweeps reject them up front.
	if _, err := eng.SweepSource(ctx, []string{"optmin", "optmin"}, src); err == nil {
		t.Error("duplicate refs must error on the aggregated path")
	}
	// A limit clamped below zero is an empty workload, not a hang.
	sum0, err := eng.SweepSource(ctx, []string{"optmin"}, setconsensus.LimitSource(src, -5))
	if err != nil {
		t.Fatal(err)
	}
	if sum0.Runs() != 0 {
		t.Fatalf("negative limit produced %d runs", sum0.Runs())
	}
	// An empty source is a legitimate workload: zero runs, no error.
	sum, err := eng.SweepSource(ctx, []string{"optmin"}, setconsensus.SliceSource())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs() != 0 {
		t.Fatalf("empty source produced %d runs", sum.Runs())
	}
}

func TestAggregatorTracksWireBits(t *testing.T) {
	adv, tb := collapseAdv(t, 2, 3)
	eng := setconsensus.New(
		setconsensus.WithBackend(setconsensus.Wire),
		setconsensus.WithCrashBound(tb),
		setconsensus.WithDegree(2),
	)
	sum, err := eng.SweepSource(context.Background(), []string{"optmin", "upmin"}, setconsensus.SliceSource(adv))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sum.Protocols {
		if p.TotalBits == 0 || p.MaxPair == 0 {
			t.Errorf("%s: wire sweep recorded no bits: %+v", p.Ref, p)
		}
		if p.Violations != 0 {
			t.Errorf("%s: %d violations", p.Ref, p.Violations)
		}
	}
	tbl := setconsensus.SummaryTable(sum)
	rendered := tbl.Render()
	if !strings.Contains(rendered, "total bits") || !strings.Contains(rendered, "optmin") {
		t.Errorf("summary table missing bit columns:\n%s", rendered)
	}
}

// TestSweepSourceRecycledGraphsGolden pins the graph-recycling worker
// path: SweepSource rebuilds each shard's knowledge graphs in a
// per-worker reused arena and releases them as soon as their results
// are aggregated. The summary must be identical to the streaming
// sweep's, which builds a fresh graph per adversary and never recycles —
// a stale-arena bug or a Result that outlives its Release would diverge
// here.
func TestSweepSourceRecycledGraphsGolden(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"optmin", "upmin", "floodmin"}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(2))
	want := sequentialSummary(t, eng, refs, src)
	got, err := eng.SweepSource(context.Background(), refs, src)
	if err != nil {
		t.Fatal(err)
	}
	requireSummariesEqual(t, got, want, src.Label())
}

// TestSweepSourceMetersPatches pins the delta-order sweep's build
// economics exactly: on a sweep of an exhaustive space, the engine
// performs one full knowledge-graph build per canonical failure pattern
// and patches every other adversary of the block (same pattern, one
// input changed), at any parallelism — each pattern block is one claimed
// window, the n=4 space's block of 81 included. Any drift — a window
// boundary landing mid-block, a patch silently falling back to a
// rebuild, a revive sneaking in, an engine configuration that bypasses
// the Builder — breaks an equality here. The "cli" engine is built with
// exactly cli.SweepWorkload's options, so the CLI cannot fall off the
// patch path unnoticed.
func TestSweepSourceMetersPatches(t *testing.T) {
	refs := []string{"upmin"}
	for _, space := range []setconsensus.Space{
		{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}},
		{N: 4, T: 1, MaxRound: 2, Values: []int{0, 1, 2}},
	} {
		engines := []struct {
			name string
			eng  *setconsensus.Engine
		}{
			{"workers=1", setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithParallelism(1))},
			{"workers=4", setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithParallelism(4))},
			{"cli", setconsensus.New(
				setconsensus.WithBackend(setconsensus.Oracle),
				setconsensus.WithCrashBound(setconsensus.PatternCrashBound),
				setconsensus.WithDegree(2),
			)},
		}
		for _, tc := range engines {
			src, err := setconsensus.SpaceSource(space)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := tc.eng.SweepSource(context.Background(), refs, src)
			if err != nil {
				t.Fatal(err)
			}
			total := sum.Runs() / len(refs)
			block := 1
			for range space.N {
				block *= len(space.Values)
			}
			if block <= 1 || total%block != 0 {
				t.Fatalf("%s: space yields %d adversaries, not a multiple of block %d", space.Label(), total, block)
			}
			patterns := int64(total / block)
			st := tc.eng.Stats()
			if st.GraphsRebuilt != patterns {
				t.Errorf("%s %s: GraphsRebuilt = %d, want one per pattern (%d)",
					space.Label(), tc.name, st.GraphsRebuilt, patterns)
			}
			if st.GraphsRevived != 0 {
				t.Errorf("%s %s: GraphsRevived = %d, want 0 in delta order", space.Label(), tc.name, st.GraphsRevived)
			}
			if want := int64(total) - patterns; st.GraphsPatched != want {
				t.Errorf("%s %s: GraphsPatched = %d, want total-patterns = %d",
					space.Label(), tc.name, st.GraphsPatched, want)
			}
		}
	}
}

// TestDeliveredResultsKeepTheirAdversaries pins that the sweeps handing
// Results out hand out adversaries their callers may keep: after Sweep
// and SweepSourceStream return, every Result's Adv still renders the
// adversary string its run recorded, each of the space's adversaries
// once per protocol, and Sweep's is the very adversary passed in. A
// folding sweep carves an exhaustive space's windows from each worker's
// reused arena; a delivering path that took the arena would find its
// Results' adversaries overwritten by later windows.
func TestDeliveredResultsKeepTheirAdversaries(t *testing.T) {
	ctx := context.Background()
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"optmin", "upmin"}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithParallelism(2))
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*setconsensus.Result
	if err := eng.SweepSourceStream(ctx, refs, src, func(r *setconsensus.Result) {
		streamed = append(streamed, r)
	}); err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]int)
	for _, r := range streamed {
		if got := r.Adv().String(); got != r.Adversary {
			t.Fatalf("streamed %s run on %s now holds %s", r.Ref, r.Adversary, got)
		}
		runs[r.Adversary]++
	}
	if len(runs) != space.Count() {
		t.Fatalf("streamed runs cover %d distinct adversaries, the space holds %d", len(runs), space.Count())
	}
	for adv, n := range runs {
		if n != len(refs) {
			t.Fatalf("%s streamed %d runs, want %d", adv, n, len(refs))
		}
	}

	advs, err := space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Sweep(ctx, refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		adv := advs[i/len(refs)]
		if r.Adv() != adv || r.Adversary != adv.String() {
			t.Fatalf("Sweep result %d holds %s (rendered %s), want %s", i, r.Adv(), r.Adversary, adv)
		}
	}
}

// TestRecycledRandomWindowsMatchFreshSlabs pins the recycled random
// windows: a folding sweep draws a random stream's windows into each
// worker's reused arena, growing each graph only as deep as its runs
// read, and must fold exactly the Summary the fresh-slab path folds —
// the stream's adversaries materialized, swept by Sweep into full
// graphs, and added one Result at a time — at one and two workers,
// under a fixed crash bound and under PatternCrashBound. The counts
// give windows of one adversary (15 at two workers, 7 at one), where
// each claim hands out the same pattern slot again, and windows of
// many. A RandomSource under RangeSource and LimitSource, which draws
// and discards its prefix, folds its own window's Summary too. Each
// adversary is counted as exactly one build, revive or patch.
func TestRecycledRandomWindowsMatchFreshSlabs(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin", "floodmin"}
	p := setconsensus.RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3}
	for _, count := range []int{7, 15, 600} {
		random, err := setconsensus.RandomSource(int64(count), count, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []setconsensus.Source{
			random,
			setconsensus.RangeSource(random, count/3, count/2),
			setconsensus.LimitSource(setconsensus.RangeSource(random, 1, count), count-2),
		} {
			var advs []*setconsensus.Adversary
			for a := range src.Seq() {
				advs = append(advs, a)
			}
			for _, workers := range []int{1, 2} {
				for _, tb := range []int{3, setconsensus.PatternCrashBound} {
					opts := []setconsensus.Option{setconsensus.WithDegree(2), setconsensus.WithCrashBound(tb), setconsensus.WithParallelism(workers)}
					fresh := setconsensus.New(opts...)
					results, err := fresh.Sweep(ctx, refs, advs)
					if err != nil {
						t.Fatal(err)
					}
					golden, err := fresh.NewAggregator(src.Label(), refs)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						golden.Add(r)
					}
					eng := setconsensus.New(opts...)
					sum, err := eng.SweepSource(ctx, refs, src)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s workers=%d t=%d", src.Label(), workers, tb)
					if !reflect.DeepEqual(sum.Protocols, golden.Summary().Protocols) {
						t.Errorf("%s: recycled windows fold\n%s\nfresh slabs fold\n%s", name,
							setconsensus.SummaryTable(sum), setconsensus.SummaryTable(golden.Summary()))
					}
					st := eng.Stats()
					if got := st.GraphsRebuilt + st.GraphsRevived + st.GraphsPatched; got != int64(len(advs)) {
						t.Errorf("%s: %d graphs built, revived or patched for %d adversaries", name, got, len(advs))
					}
				}
			}
		}
	}
}
