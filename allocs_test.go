//go:build !race

package setconsensus_test

import (
	"context"
	"testing"

	setconsensus "setconsensus"
)

// TestRunPathAllocationPins pins the allocations of the one run path on a
// warm single-worker engine over BenchmarkSweepSource's space, each at
// its measured count plus one (Go 1.24, linux/amd64). None may rise
// above its pin:
//   - SweepSource folds every run out of the worker's pooled buffer and
//     carves each window's adversaries from the worker's reused arena,
//     and the cursor carves the failure patterns, each materialized
//     once, from shared slabs, so its count grows with neither the
//     space's adversaries nor its patterns;
//   - SweepSource over RangeSource(src, 256, 256) is the unit of a
//     coordinated checkpointed sweep, which sweeps dozens of such ranges
//     per operation, so one extra allocation per worker shows there many
//     times over;
//   - Sweep pays per run only for the detached Result it hands out (the
//     Result with its extras, the decision pointers and their slab) and
//     per adversary for the adversary string and its fresh slabs; its
//     graphs are built, revived and patched in the worker's Builder, as
//     SweepSource's are;
//   - SweepSourceStream over the same space pays what Sweep pays, less
//     the result slice, plus the fresh slabs it enumerates each window
//     into, since an emitted Result keeps its adversary;
//   - Engine.Run is a one-adversary sweep on the same path;
//   - SweepSource over RandomSource(1, 2000, n=6,t=3,maxv=2,maxr=3) at
//     k=2, the benchmark's random workload cut to 2,000 adversaries,
//     pays per adversary only a share of the sampler's slabs — its
//     failure pattern, crash slice and delivery sets included — and per
//     full graph build nothing.
//
// The race detector allocates on its own, hence the build tag.
func TestRunPathAllocationPins(t *testing.T) {
	ctx := context.Background()
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithParallelism(1))
	src, err := setconsensus.SpaceSource(sweepSpace())
	if err != nil {
		t.Fatal(err)
	}
	advs, err := sweepSpace().Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	window := setconsensus.RangeSource(src, 256, 256)
	random, err := setconsensus.RandomSource(1, 2000, setconsensus.RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3})
	if err != nil {
		t.Fatal(err)
	}
	randEng := setconsensus.New(setconsensus.WithDegree(2), setconsensus.WithCrashBound(3), setconsensus.WithParallelism(1))
	cases := []struct {
		name string
		pin  float64
		run  func() error
	}{
		{"SweepSource", 85, func() error {
			_, err := eng.SweepSource(ctx, sweepSpaceRefs, src)
			return err
		}},
		{"SweepSource/range", 87, func() error {
			_, err := eng.SweepSource(ctx, sweepSpaceRefs, window)
			return err
		}},
		{"Sweep", 9709, func() error {
			_, err := eng.Sweep(ctx, sweepSpaceRefs, advs)
			return err
		}},
		{"SweepSourceStream", 9741, func() error {
			return eng.SweepSourceStream(ctx, sweepSpaceRefs, src, func(*setconsensus.Result) {})
		}},
		{"Run", 14, func() error {
			_, err := eng.Run(ctx, "optmin", advs[len(advs)-1])
			return err
		}},
		{"SweepSource/random", 290, func() error {
			_, err := randEng.SweepSource(ctx, sweepSpaceRefs, random)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil { // warm the engine's pools
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(10, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.pin {
			t.Errorf("%s: %.0f allocations per op, pinned at %.0f", c.name, got, c.pin)
		}
	}
}

// TestBenchmarkAllocationPins pins, at its measured count plus one (Go
// 1.24, linux/amd64), the allocations per operation of the root
// package's benchmarks that the CI benchmark job requires and no other
// pin covers. The engines run one worker, where the benchmarks use the
// machine's parallelism (GovernedSweep) or four workers (Analyze): a
// worker's kit and goroutine are a fixed share of each operation, so a
// pin at P=1 is the same on every machine and still moves with every
// per-run or per-adversary allocation.
//   - GovernedSweep is BenchmarkSweepSource's sweep with a resource
//     governor attached: metering rides the pools' choke points and adds
//     no allocation of its own;
//   - Analyze is the staged unbeatability search on the n=4 uniform
//     space: its compile runs every adversary of the space on the one
//     run path, and its candidate testing re-simulates;
//   - GraphBuilderReuse revives a Builder's parked graph for an
//     adversary of the same pattern, and allocates nothing.
func TestBenchmarkAllocationPins(t *testing.T) {
	governed, _ := governedSweepOp(t, setconsensus.WithParallelism(1))
	analyze := analyzeOp(1)
	reuse := builderReuseOp(t)
	i := 0
	cases := []struct {
		name string
		pin  float64
		run  func() error
	}{
		{"GovernedSweep", 85, governed},
		{"Analyze", 1945, analyze},
		{"GraphBuilderReuse", 1, func() error {
			reuse(i)
			i++
			return nil
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil { // warm the engine's pools
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(10, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.pin {
			t.Errorf("%s: %.0f allocations per op, pinned at %.0f", c.name, got, c.pin)
		}
	}
}
