package knowledge

import (
	"setconsensus/internal/model"

	"math/rand"
	"testing"
)

// The benchmarks share one mid-size randomized adversary: 10 processes,
// up to 6 crashers over 4 rounds — large enough that the word-parallel
// kernels and the scalar reference visibly diverge.

func BenchmarkBuildArena(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	adv := randomAdversary(rng, 10, 6, 4, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(adv, 6)
	}
}

// BenchmarkBuildArenaReused measures the same-pattern revive path: the
// two adversaries share a failure pattern but differ in two inputs, so
// every Build refills the spare's value layer in place (more than one
// diff defeats the patch kernel, an identical vector would hit the
// zero-diff skip, and either would understate a real rebuild).
func BenchmarkBuildArenaReused(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	adv := randomAdversary(rng, 10, 6, 4, 3)
	other := flip(flip(adv, 0, adv.Inputs[0]^1), 1, adv.Inputs[1]^1)
	builder := NewBuilder()
	builder.Build(adv, 6).Release()
	pair := [2]*model.Adversary{other, adv}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Build(pair[i&1], 6).Release()
	}
	if _, revived, _ := builder.TakeCounts(); revived != b.N {
		b.Fatalf("revived %d of %d builds — revive path not taken", revived, b.N)
	}
}

// BenchmarkBuildReference is the retained naive implementation on the
// same adversary: the denominator of the arena rewrite's win.
func BenchmarkBuildReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	adv := randomAdversary(rng, 10, 6, 4, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newReference(adv, 6)
	}
}

func BenchmarkPersists(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	adv := randomAdversary(rng, 10, 6, 4, 3)
	g := New(adv, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 10; p++ {
			g.Persists(p, 6, 1, 6)
		}
	}
}

// deltaPatchOp is BenchmarkDeltaPatch's setup: a Builder primed with a
// full build, and its i-th operation, a single-input patch between two
// neighbouring adversaries.
func deltaPatchOp() (func(i int), *Builder) {
	rng := rand.New(rand.NewSource(1))
	adv := randomAdversary(rng, 10, 6, 4, 3)
	flipped := flip(adv, 0, adv.Inputs[0]^1)
	builder := NewBuilder()
	builder.Build(adv, 6).Release()
	pair := [2]*model.Adversary{flipped, adv}
	return func(i int) { builder.Build(pair[i&1], 6).Release() }, builder
}

// BenchmarkDeltaPatch is the patch kernel against the full rebuild it
// replaces (BenchmarkBuildArenaReused, same adversary size): the builder
// holds a spare of the same failure pattern and every iteration flips a
// single input, so Build takes the one-diff patch path — only the value
// and knowledge words of the views that ever see the changed process are
// rewritten — instead of refilling the whole arena.
func BenchmarkDeltaPatch(b *testing.B) {
	op, builder := deltaPatchOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	built, _, patched := builder.TakeCounts()
	if built != 1 || patched != b.N {
		b.Fatalf("built=%d patched=%d over %d iterations — patch path not taken", built, patched, b.N)
	}
}
