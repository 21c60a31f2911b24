package setconsensus

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"setconsensus/internal/bitset"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// gateProtocol never decides; the first Decide of its first run closes
// blocked and waits for release.
type gateProtocol struct {
	once             *sync.Once
	blocked, release chan struct{}
}

func (gateProtocol) Name() string               { return "gate" }
func (gateProtocol) WorstCaseDecisionTime() int { return 2 }
func (p gateProtocol) Decide(*knowledge.Graph, model.Proc, int) (model.Value, bool) {
	p.once.Do(func() {
		close(p.blocked)
		<-p.release
	})
	return 0, false
}

// TestSweepSourceJoinsSourceIterator pins the executor's lifetime
// contract: SweepSource returns only after the source iterator it pulled
// has returned. At Parallelism 1 the worker's first Decide blocks while
// the source iterator is parked before its 33rd adversary, behind a gate
// the test opens only after SweepSource has returned. An executor that
// leaves the iterator running — a feeder goroutine still inside it —
// returns first and fails here; one that joins its iterator can only
// return once the iterator has.
func TestSweepSourceJoinsSourceIterator(t *testing.T) {
	gate := gateProtocol{once: new(sync.Once), blocked: make(chan struct{}), release: make(chan struct{})}
	reg := NewRegistry()
	reg.MustRegister(ProtocolSpec{
		Name:          "gate",
		WorstCaseTime: func(Params) int { return 2 },
		New:           func(Params) (Protocol, error) { return gate, nil },
	})
	eng := New(WithRegistry(reg), WithParallelism(1))
	defer eng.Close()

	adv := NewBuilder(3, 0).MustBuild()
	iterGate, iterDone := make(chan struct{}), make(chan struct{})
	src := FuncSource("gated", -1, func(yield func(*Adversary) bool) {
		defer close(iterDone)
		for i := 0; ; i++ {
			if i == 32 {
				<-iterGate
			}
			if !yield(adv) {
				return
			}
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := eng.SweepSource(ctx, []string{"gate"}, src)
		errc <- err
	}()
	<-gate.blocked
	cancel()
	close(gate.release)
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("SweepSource = %v, want context.Canceled", err)
		}
		select {
		case <-iterDone:
		default:
			t.Error("SweepSource returned while the source iterator is still running")
		}
	case <-time.After(10 * time.Second):
		t.Error("SweepSource did not return after cancellation")
	}
	close(iterGate)
	select {
	case <-iterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the source iterator never returned")
	}
}

// claimed is one window a claimer handed out, copied out of its
// worker's window buffer.
type claimed struct {
	base int
	advs []*Adversary
}

// claimAll drains a fresh claimer for src with the given number of
// concurrent workers, each claiming into its own pooled kit, and returns
// every window, sorted by base.
func claimAll(t *testing.T, e *Engine, src Source, workers int) []claimed {
	t.Helper()
	count, known := src.Count()
	var (
		mu      sync.Mutex
		windows []claimed
		failed  error
		wg      sync.WaitGroup
	)
	cl := newClaimer(src, count, known, workers, false, func(err error) { failed = err })
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kit := e.getKit()
			defer e.putKit(kit)
			for c := range cl.chunks(context.Background(), e, kit) {
				mu.Lock()
				windows = append(windows, claimed{c.base, append([]*Adversary(nil), c.advs...)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cl.close()
	if failed != nil {
		t.Fatal(failed)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].base < windows[j].base })
	return windows
}

func advKey(a *Adversary) string {
	return fmt.Sprintf("%v/%x", a.Inputs, a.Pattern.AppendFingerprint(nil))
}

// rawSpaceSize is a space's size before canonical deduplication: input
// vectors × raw failure patterns, every delivery subset counted. It only
// selects TestClaimWindowsTile's spaces, which must stay the ones drawn
// when this bound was the space's admission guard.
func rawSpaceSize(s Space) float64 {
	perCrasher := float64(s.MaxRound) * math.Pow(2, float64(s.N-1))
	patterns := 1.0
	choose := 1.0
	for size := 1; size <= s.T; size++ {
		choose = choose * float64(s.N-size+1) / float64(size)
		patterns += choose * math.Pow(perCrasher, float64(size))
	}
	return patterns * math.Pow(float64(len(s.Values)), float64(s.N))
}

// TestClaimWindowsTile drives the claim path directly: on randomized
// small spaces and one whose single block exceeds windowCap, RangeSource
// and LimitSource windows over them and their nestings (block-unaligned
// offsets and limits included), slices and a plain stream, the windows
// 1–4 concurrent workers claim, sorted by base, must reproduce Seq
// adversary for adversary, and every window of a space must lie inside
// one pattern block and hold at most windowCap adversaries.
func TestClaimWindowsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e := New()
	var spaces []Space
	for len(spaces) < 16 {
		n := 2 + rng.Intn(3)
		space := Space{N: n, T: rng.Intn(min(3, n)), MaxRound: 1 + rng.Intn(2), Values: []int{0, 1, 2}[:1+rng.Intn(3)]}
		if rawSpaceSize(space) > 12000 {
			continue // keep the race-detector stress of this test cheap
		}
		spaces = append(spaces, space)
	}
	// One failure-free block of 512 adversaries, cut into slices.
	spaces = append(spaces, Space{N: 9, T: 0, MaxRound: 1, Values: []int{0, 1}})
	for _, space := range spaces {
		spaceSrc, err := SpaceSource(space)
		if err != nil {
			t.Fatal(err)
		}
		advs, err := space.Adversaries()
		if err != nil {
			t.Fatal(err)
		}
		total, block := len(advs), 1
		for range space.N {
			block *= len(space.Values)
		}
		off, lim := rng.Intn(total+1), rng.Intn(total+2)
		type tc struct {
			name   string
			src    Source
			origin int // space offset of the stream's first adversary; -1: not a space
		}
		cases := []tc{
			{"space", spaceSrc, 0},
			{fmt.Sprintf("range@%d+%d", off, lim), RangeSource(spaceSrc, off, lim), off},
			{fmt.Sprintf("range@%d+%d@1+%d", off, lim, lim), RangeSource(RangeSource(spaceSrc, off, lim), 1, lim), off + 1},
			{fmt.Sprintf("limit[:%d]", lim), LimitSource(spaceSrc, lim), 0},
			{fmt.Sprintf("range@%d+%d[:%d]", off, lim, lim/2), LimitSource(RangeSource(spaceSrc, off, lim), lim/2), off},
			{fmt.Sprintf("limit[:%d]@%d+%d", off+lim/2, off, lim), RangeSource(LimitSource(spaceSrc, off+lim/2), off, lim), off},
			{"slice", SliceSource(advs...), -1},
			{fmt.Sprintf("slice@%d+%d", off, lim), RangeSource(SliceSource(advs...), off, lim), -1},
			{"stream", FuncSource("stream", -1, spaceSrc.Seq()), -1},
		}
		for _, c := range cases {
			if _, _, _, ok := spaceRange(c.src, 0, math.MaxInt); ok != (c.origin >= 0) {
				t.Fatalf("%s %s: claimed as windows = %v, want %v", space.Label(), c.name, ok, c.origin >= 0)
			}
			var want []string
			for a := range c.src.Seq() {
				want = append(want, advKey(a))
			}
			for workers := 1; workers <= 4; workers++ {
				label := fmt.Sprintf("%s %s workers=%d", space.Label(), c.name, workers)
				var got []string
				for _, w := range claimAll(t, e, c.src, workers) {
					if w.base != len(got) {
						t.Fatalf("%s: window at %d, want %d", label, w.base, len(got))
					}
					if c.origin >= 0 {
						first, last := c.origin+w.base, c.origin+w.base+len(w.advs)-1
						if first/block != last/block {
							t.Fatalf("%s: window [%d,%d] straddles a block of %d", label, first, last, block)
						}
						if len(w.advs) > windowCap {
							t.Fatalf("%s: window [%d,%d] holds more than %d adversaries", label, first, last, windowCap)
						}
					}
					for _, a := range w.advs {
						got = append(got, advKey(a))
					}
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: claimed %d adversaries, Seq yields %d, or their order differs", label, len(got), len(want))
				}
			}
		}
	}
}

// panickingSeq yields adv forever and panics at its 41st adversary.
func panickingSeq(adv *Adversary) iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		for i := 0; ; i++ {
			if i == 40 {
				panic("panickingSeq: boom")
			}
			if !yield(adv) {
				return
			}
		}
	}
}

// TestSweepSourcePanicIsolated runs a source whose iterator panics
// mid-stream through the aggregating and the materializing executor: the
// sweep must fail with a *govern.PanicError whose stack holds the
// iterator's frame, leave no goroutine behind — the pulled iterator
// included — and the same engine's next sweep must equal a fresh
// engine's.
func TestSweepSourcePanicIsolated(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	space := Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	spaceSrc, err := SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(WithCrashBound(2)).SweepSource(ctx, refs, spaceSrc)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewBuilder(3, 0).MustBuild()
	paths := []struct {
		name  string
		sweep func(e *Engine, src Source) error
	}{
		{"SweepSource", func(e *Engine, src Source) error {
			_, err := e.SweepSource(ctx, refs, src)
			return err
		}},
		{"SweepSourceStream", func(e *Engine, src Source) error {
			return e.SweepSourceStream(ctx, refs, src, func(*Result) {})
		}},
	}
	for _, path := range paths {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", path.name, par), func(t *testing.T) {
				before := runtime.NumGoroutine()
				e := New(WithCrashBound(2), WithParallelism(par))
				err := path.sweep(e, FuncSource("panicking", -1, panickingSeq(adv)))
				pe, ok := govern.AsPanic(err)
				if !ok {
					t.Fatalf("sweep = %v, want a *govern.PanicError", err)
				}
				if !strings.Contains(string(pe.Stack), "panickingSeq") {
					t.Fatalf("panic stack lacks the iterator's frame:\n%s", pe.Stack)
				}
				settleGoroutines(t, before)
				got, err := e.SweepSource(ctx, refs, spaceSrc)
				if err != nil {
					t.Fatalf("sweep after a recovered source panic: %v", err)
				}
				if SummaryTable(got).Render() != SummaryTable(want).Render() {
					t.Fatal("sweep after a recovered source panic differs from a fresh engine's")
				}
			})
		}
	}
}

// TestPooledKitsHoldNoAdversary sweeps through every claim path — a
// space's windows enumerated into fresh slabs (SweepSourceStream) and
// into the reused arena (SweepSource), a plain stream pulled into the
// kit's buffer, and a random stream whose sampler carves its adversaries
// from slabs of its own — and runs one adversary through Engine.Run.
// After each it checks every kit back in the pool: its window buffer has
// capacity, yet not one slot of it still points at an adversary, and
// its run buffer keeps no adversary, graph or decision of the last run.
// Then it drops the Run's adversary and checks that the collector
// reclaims it, its failure pattern and its delivery set: nothing the
// engine pools — the kits' builders included — pins them.
func TestPooledKitsHoldNoAdversary(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	space := Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	spaceSrc, err := SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	stream := FuncSource("stream", -1, spaceSrc.Seq())
	random, err := RandomSource(3, 300, RandomParams{N: 5, T: 2, MaxValue: 2, MaxRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithCrashBound(2), WithDegree(2), WithParallelism(2))
	checkPool := func(after string) {
		t.Helper()
		e.kitMu.Lock()
		defer e.kitMu.Unlock()
		if len(e.kitFree) == 0 {
			t.Fatalf("after %s: no kit went back to the pool", after)
		}
		for i, kit := range e.kitFree {
			if cap(kit.advs) == 0 && after != "Run" {
				t.Errorf("after %s: pooled kit %d has no window buffer", after, i)
			}
			for j, adv := range kit.advs[:cap(kit.advs)] {
				if adv != nil {
					t.Fatalf("after %s: pooled kit %d still holds an adversary in window slot %d", after, i, j)
				}
			}
			b := kit.buf
			switch {
			case b.req.adv != nil, b.req.graph != nil:
				t.Fatalf("after %s: pooled kit %d's request keeps its adversary or graph", after, i)
			case b.res.adv != nil, b.res.Decisions != nil:
				t.Fatalf("after %s: pooled kit %d's Result keeps its adversary or decisions", after, i)
			case b.simres.Adv != nil, b.simres.Graph != nil, b.simres.Decisions != nil, b.simres.Deciders != nil:
				t.Fatalf("after %s: pooled kit %d's run record keeps its adversary, graph or masks", after, i)
			}
		}
	}
	if err := e.SweepSourceStream(ctx, refs, spaceSrc, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	checkPool("SweepSourceStream")
	for _, src := range []Source{spaceSrc, stream, random} {
		if _, err := e.SweepSource(ctx, refs, src); err != nil {
			t.Fatal(err)
		}
		checkPool("SweepSource of " + src.Label())
	}

	del := bitset.New(3)
	pat := model.NewFailurePattern(3)
	pat.SetCrash(model.Crash{Proc: 2, Round: 1, Delivered: del})
	adv := model.NewAdversary([]model.Value{0, 1, 1}, pat)
	wAdv, wPat, wDel := weak.Make(adv), weak.Make(pat), weak.Make(del)
	if _, err := e.Run(ctx, "upmin", adv); err != nil {
		t.Fatal(err)
	}
	checkPool("Run")
	adv, pat, del = nil, nil, nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if wAdv.Value() != nil || wPat.Value() != nil || wDel.Value() != nil {
		t.Fatalf("the engine still pins the last Run's adversary %v, pattern %v or delivery set %v",
			wAdv.Value() != nil, wPat.Value() != nil, wDel.Value() != nil)
	}
	runtime.KeepAlive(e)
}

// TestWarmSweepGrowsNoWindowBuffer pins the window-buffer hit counts: a
// warm engine's second sweep of a space, and of a plain stream, claims
// every window into a buffer that already fits it, so it counts chunk
// hits only — one per claimed window — and no miss.
func TestWarmSweepGrowsNoWindowBuffer(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin"}
	spaceSrc, err := SpaceSource(Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{spaceSrc, FuncSource("stream", -1, spaceSrc.Seq())} {
		e := New(WithCrashBound(2), WithParallelism(1))
		if _, err := e.SweepSource(ctx, refs, src); err != nil {
			t.Fatal(err)
		}
		cold := e.Stats()
		if cold.ChunkMisses == 0 {
			t.Fatalf("%s: a cold engine's sweep grew no window buffer", src.Label())
		}
		if _, err := e.SweepSource(ctx, refs, src); err != nil {
			t.Fatal(err)
		}
		warm := e.Stats()
		if d := warm.ChunkMisses - cold.ChunkMisses; d != 0 {
			t.Errorf("%s: the warm sweep grew its window buffer %d times", src.Label(), d)
		}
		if d, want := warm.ChunkHits-cold.ChunkHits, cold.ChunkHits+cold.ChunkMisses; d != want {
			t.Errorf("%s: the warm sweep counted %d hits, want one per window of the cold sweep (%d)", src.Label(), d, want)
		}
	}
}
