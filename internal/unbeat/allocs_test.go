//go:build !race

package unbeat

import "testing"

// TestCompileDeltaAllocationPin pins BenchmarkCompileDelta, which the CI
// benchmark job requires, at its measured allocations per operation
// plus one (Go 1.24, linux/amd64). After one pass over the pattern
// block has interned its views, each step — a patch build, a run on the
// one run path, and a compile that copies unchanged view ids forward —
// allocates nothing. The race detector allocates on its own, hence the
// build tag.
func TestCompileDeltaAllocationPin(t *testing.T) {
	op := compileDeltaOp(t)
	_, p := benchSearchConfig()
	block := inputVectors(p.Space)
	i := 0
	step := func() {
		op(i)
		i++
	}
	for j := 0; j < block; j++ {
		step()
	}
	got := testing.AllocsPerRun(2*block, step)
	if got > 1 {
		t.Errorf("CompileDelta: %.0f allocations per op, pinned at 1", got)
	}
}
