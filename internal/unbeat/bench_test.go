package unbeat

import (
	"context"
	"testing"

	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// The ablation pair behind the analysis pipeline: the staged
// compile/shard/test search versus the retained pre-pipeline reference
// (reference_test.go — map per candidate, bitset per (candidate, run),
// allocating run path). The uniform n=4 probe is the seeded space whose
// candidate testing is heavy enough to exercise the stage the pipeline
// reworked; BenchmarkAnalyze in the root package measures the same
// space through Engine.Analyze.

func benchSearchConfig() (sim.Protocol, SearchParams) {
	return core.MustUPmin(core.Params{N: 4, T: 2, K: 1}), SearchParams{
		Space: enum.Space{N: 4, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		K:     1, T: 2, Uniform: true, Width: 2,
	}
}

func BenchmarkSearchPipeline(b *testing.B) {
	base, p := benchSearchConfig()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Search(ctx, base, p)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Beaten {
			b.Fatal("u-Pmin beaten — search broken")
		}
	}
}

func BenchmarkSearchReference(b *testing.B) {
	base, p := benchSearchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := referenceSearch(base, p)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Beaten {
			b.Fatal("u-Pmin beaten — search broken")
		}
	}
}

// BenchmarkCompile isolates the compile stage: pooled Builder revive +
// scratch simulation + zero-copy view interning over the whole space.
func BenchmarkCompile(b *testing.B) {
	base, p := benchSearchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCompiler(p)
		if err != nil {
			b.Fatal(err)
		}
		builder := knowledge.NewBuilder()
		var sc sim.Scratch
		var res sim.Result
		err = p.Space.ForEach(func(adv *model.Adversary) bool {
			g := builder.Build(adv, c.Horizon())
			sim.RunWithGraphInto(base, g, &sc, &res)
			c.Add(adv, g, res.Decisions)
			g.Release()
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileDelta isolates the steady-state delta kernels of the
// compile stage: one pattern block of the probe space, cycled in its
// Gray-code order, so after the priming build every adversary differs
// from its predecessor in a single input — Build rides the patch kernel
// and Add copies interned view ids forward wherever the view has not
// seen the changed process. Per-adversary cost here, against
// BenchmarkCompile's whole-space figure (which pays a full build and
// fresh interning at every pattern boundary), is the delta machinery's
// margin.
func BenchmarkCompileDelta(b *testing.B) {
	base, p := benchSearchConfig()
	c, err := NewCompiler(p)
	if err != nil {
		b.Fatal(err)
	}
	block := inputVectors(p.Space)
	advs := make([]*model.Adversary, 0, block)
	for _, adv := range p.Space.Range(0, block) {
		advs = append(advs, adv)
	}
	builder := knowledge.NewBuilder()
	var sc sim.Scratch
	var res sim.Result
	builder.Build(advs[0], c.Horizon()).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := advs[i%block]
		g := builder.Build(adv, c.Horizon())
		sim.RunWithGraphInto(base, g, &sc, &res)
		c.Add(adv, g, res.Decisions)
		g.Release()
	}
}
