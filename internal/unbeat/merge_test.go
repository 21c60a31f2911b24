package unbeat

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// inputVectors is the length of each failure pattern's block in a
// space's enumeration: len(Values)^N.
func inputVectors(s enum.Space) int {
	n := 1
	for range s.N {
		n *= len(s.Values)
	}
	return n
}

// compileSegments compiles the space's offsets [lo, hi) into c as one
// segment, the way an executor worker compiles a chunk it is handed.
func compileSegments(t *testing.T, c *Compiler, base sim.Protocol, advs []*model.Adversary, lo, hi int) {
	t.Helper()
	builder := knowledge.NewBuilder()
	var sc sim.Scratch
	var res sim.Result
	c.Segment(lo)
	for _, adv := range advs[lo:hi] {
		g := builder.Build(adv, c.Horizon())
		sim.RunWithGraphInto(base, g, &sc, &res)
		c.Add(adv, g, res.Decisions)
		g.Release()
	}
}

// compileFragments compiles the space as nfrag fragments: its offsets
// are cut into segments of segRuns runs, and the segments are dealt to
// the fragments in shuffled order, each fragment compiling its segments
// in the order dealt — as executor workers do, but with no guarantee
// that a fragment sees its segments in space order.
func compileFragments(t *testing.T, base sim.Protocol, p SearchParams, advs []*model.Adversary, nfrag, segRuns int, rng *rand.Rand) []*Compiler {
	t.Helper()
	frags := make([]*Compiler, nfrag)
	for i := range frags {
		var err error
		if frags[i], err = NewCompiler(p); err != nil {
			t.Fatal(err)
		}
	}
	var starts []int
	for lo := 0; lo < len(advs); lo += segRuns {
		starts = append(starts, lo)
	}
	rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	for _, lo := range starts {
		compileSegments(t, frags[rng.Intn(nfrag)], base, advs, lo, min(lo+segRuns, len(advs)))
	}
	return frags
}

// TestMergeMatchesSequentialCompile pins the fragment merge: however the
// space is cut into segments and dealt to fragments, the merged Compiled
// — view ids, pre-decision flags, value sets, run table, occurrence sets
// and base violations — equals a single compiler's, and so does the
// report, which also matches the reference search.
func TestMergeMatchesSequentialCompile(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for _, c := range referenceCases() {
		t.Run(c.name, func(t *testing.T) {
			want := compileFor(t, c.base, c.p)
			wantRep, err := want.Search(ctx, SearchOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceSearch(c.base, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantRep, ref) {
				t.Fatalf("sequential compile diverges from reference:\nref: %+v\ngot: %+v", ref, wantRep)
			}
			advs, err := c.p.Space.Adversaries()
			if err != nil {
				t.Fatal(err)
			}
			block := inputVectors(c.p.Space)
			divisor := 1
			for d := block / 2; d > 1 && divisor == 1; d-- {
				if block%d == 0 {
					divisor = d
				}
			}
			// Block-aligned segments as the executor cuts them (a block, a
			// divisor of one, several), plus a misaligned size: id reuse
			// diffs against whatever run came before, so any tiling merges.
			// One fragment dealt shuffled segments takes Merge's general
			// path too.
			for _, split := range []struct{ segRuns, nfrag int }{
				{block, 1}, {divisor, 2}, {3 * block, 3}, {7, 5},
			} {
				frags := compileFragments(t, c.base, c.p, advs, split.nfrag, split.segRuns, rng)
				got, err := Merge(frags...)
				if err != nil {
					t.Fatalf("%+v: %v", split, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%+v: merged compile diverges from the sequential one", split)
				}
				rep, err := got.Search(ctx, SearchOptions{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantRep, rep) {
					t.Fatalf("%+v: report diverges:\nwant: %+v\ngot:  %+v", split, wantRep, rep)
				}
			}
		})
	}
}

// TestMergeRejectsUntiledSegments pins that Merge accepts only segments
// tiling [0, runs) exactly.
func TestMergeRejectsUntiledSegments(t *testing.T) {
	base := core.MustOptmin(core.Params{N: 3, T: 1, K: 1})
	p := SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 1}
	advs, err := p.Space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	block := inputVectors(p.Space)
	frag := func(windows ...[2]int) *Compiler {
		c, err := NewCompiler(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			compileSegments(t, c, base, advs, w[0], w[1])
		}
		return c
	}
	all := len(advs)
	cases := []struct {
		name  string
		frags func() []*Compiler
		want  string
	}{
		{"gap between fragments", func() []*Compiler {
			return []*Compiler{frag([2]int{0, block}), frag([2]int{2 * block, all})}
		}, "never compiled"},
		{"gap at the start", func() []*Compiler { return []*Compiler{frag([2]int{block, all})} }, "never compiled"},
		{"overlap between fragments", func() []*Compiler {
			return []*Compiler{frag([2]int{0, 2 * block}), frag([2]int{block, all})}
		}, "compiled twice"},
		{"overlap within a fragment", func() []*Compiler {
			return []*Compiler{frag([2]int{0, all}, [2]int{block, 2 * block})}
		}, "compiled twice"},
		{"different searches", func() []*Compiler {
			other, err := NewCompiler(SearchParams{Space: p.Space, K: 1, T: 1, Width: 2})
			if err != nil {
				t.Fatal(err)
			}
			compileSegments(t, other, base, advs, block, all)
			return []*Compiler{frag([2]int{0, block}), other}
		}, "different searches"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Merge(c.frags()...); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Merge = %v, want an error containing %q", err, c.want)
			}
		})
	}
	c := frag([2]int{0, all})
	if _, err := Merge(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(c); err == nil {
		t.Fatal("a merged compiler merged again")
	}
}

// tableBytes reports the bytes the compiled runs hold — the run table
// and the occurrence sets, by capacity.
func (cs *Compiled) tableBytes() int {
	t := &cs.table
	b := 4*cap(t.ids) + 4*cap(t.ends) + cap(t.decTime) + 4*cap(t.decVal) + 8*cap(t.correct) + 8*cap(t.present)
	for i := range cs.occurs {
		b += 8 * cap(cs.occurs[i].Words())
	}
	return b
}

// TestCompiledTableSizeN5 pins the per-run cost of a compiled space on
// the n=5 tier: Optmin[2] over five processes, two crashes, values
// 0..2 (2,391,363 runs, unbeaten at width 1), held at ≤ 200 B per run.
func TestCompiledTableSizeN5(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5 compile: 2.4M runs")
	}
	p := SearchParams{
		Space: enum.Space{N: 5, T: 2, MaxRound: 3, Values: []model.Value{0, 1, 2}},
		K:     2, T: 2, Width: 1,
	}
	cs := compileFor(t, core.MustOptmin(core.Params{N: 5, T: 2, K: 2}), p)
	runs := cs.table.runs()
	perRun := float64(cs.tableBytes()) / float64(runs)
	t.Logf("%d runs, %.1f B/run", runs, perRun)
	if perRun > 200 {
		t.Fatalf("compiled table holds %.1f B per run, want ≤ 200", perRun)
	}
	rep, err := cs.Search(context.Background(), SearchOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beaten || rep.Runs != 2391363 || rep.Views != 35 {
		t.Fatalf("n=5 Optmin[2] search: %+v", rep)
	}
}
