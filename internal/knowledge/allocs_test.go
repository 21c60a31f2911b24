//go:build !race

package knowledge

import "testing"

// TestDeltaPatchAllocationPin pins BenchmarkDeltaPatch, which the CI
// benchmark job requires, at its measured allocations per operation
// plus one (Go 1.24, linux/amd64): a single-input patch through a warm
// Builder allocates nothing. The race detector allocates on its own,
// hence the build tag.
func TestDeltaPatchAllocationPin(t *testing.T) {
	op, _ := deltaPatchOp()
	i := 0
	got := testing.AllocsPerRun(100, func() {
		op(i)
		i++
	})
	if got > 1 {
		t.Errorf("DeltaPatch: %.0f allocations per op, pinned at 1", got)
	}
}
