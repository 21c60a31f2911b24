//go:build !race

package service

import "testing"

// TestServiceSubmitAllocationPin pins BenchmarkServiceSubmit, which the
// CI benchmark job requires, at its measured allocations per operation
// plus one (Go 1.24, linux/amd64): admission, the queue, a per-job
// engine and its one-adversary sweep, and the terminal fan-out. The
// race detector allocates on its own, hence the build tag.
func TestServiceSubmitAllocationPin(t *testing.T) {
	op, shutdown := submitOp(t)
	defer shutdown()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 217 {
		t.Errorf("ServiceSubmit: %.0f allocations per op, pinned at 217", got)
	}
}
