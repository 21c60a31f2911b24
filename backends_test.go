package setconsensus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/model"
)

// TestBackendsThroughOneWorker runs all three backends through both
// halves of the one sweep worker — the escaping half behind Sweep and
// the folding half behind SweepSource — on a whole exhaustive k=2 space,
// and on every 37th adversary of each differential space
// (differentialSpaces) at k = 1..3, with the space's own t as the crash
// bound, fed to Sweep and to SweepSource through one SliceSource. Each
// workload is a parallel subtest, checked by throughOneWorker. The
// sample costs about 8 s on two vCPUs, most of it the goroutine
// backend's n+1 goroutines per run; the race detector makes that
// minutes, so under it the stride is 37·9.
func TestBackendsThroughOneWorker(t *testing.T) {
	refs := []string{"optmin", "upmin"}
	stride := 37
	if raceDetector {
		stride *= 9
	}
	whole := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1, 2}}
	advs, err := whole.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	src, err := setconsensus.SpaceSource(whole)
	if err != nil {
		t.Fatal(err)
	}
	t.Run(whole.Label(), func(t *testing.T) {
		t.Parallel()
		throughOneWorker(t, refs, advs, src, whole.T, 2)
	})
	for _, space := range differentialSpaces {
		var sample []*setconsensus.Adversary
		seen := 0
		err := space.ForEach(func(adv *model.Adversary) bool {
			if seen++; (seen-1)%stride == 0 {
				// A copy of the inputs, so the sample does not pin the
				// enumeration's slabs; the pattern stays shared, so the
				// Builder still revives and patches along the sample.
				sample = append(sample, model.NewAdversary(adv.Inputs, adv.Pattern))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		src := setconsensus.SliceSource(sample...)
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("1 in %d of %s, k=%d", stride, space.Label(), k), func(t *testing.T) {
				t.Parallel()
				throughOneWorker(t, refs, sample, src, space.T, k)
			})
		}
	}
}

// throughOneWorker runs refs against advs on each backend, at crash
// bound crashBound and degree k, and checks:
//   - Sweep decisions agree run by run across Oracle, Goroutines and
//     Wire;
//   - on each backend, the SweepSource Summary of src, which yields
//     advs, equals Aggregator.Add folded over that backend's Sweep
//     Results, wire bits included;
//   - every Sweep Result marshals to the same JSON as a fresh Engine.Run
//     of its protocol and adversary, compared only after the whole sweep
//     has returned, so no detached Result aliases a worker's buffer. The
//     graph stats agree too: both built-in protocols have the horizon
//     ⌊t/k⌋+1, so a sweep's shared graph is a lone run's.
func throughOneWorker(t *testing.T, refs []string, advs []*setconsensus.Adversary, src setconsensus.Source, crashBound, k int) {
	ctx := context.Background()
	var first []*setconsensus.Result
	for _, bk := range []setconsensus.BackendKind{setconsensus.Oracle, setconsensus.Goroutines, setconsensus.Wire} {
		eng := setconsensus.New(
			setconsensus.WithBackend(bk),
			setconsensus.WithCrashBound(crashBound),
			setconsensus.WithDegree(k),
			setconsensus.WithParallelism(2),
		)
		results, err := eng.Sweep(ctx, refs, advs)
		if err != nil {
			t.Fatalf("%s: Sweep: %v", bk, err)
		}
		if first == nil {
			first = results
		}
		for i, r := range results {
			want := first[i]
			for p := range want.Decisions {
				a, b := want.Decisions[p], r.Decisions[p]
				if (a == nil) != (b == nil) || (a != nil && *a != *b) {
					t.Fatalf("%s: run %d (%s on %s), process %d: %+v, %s decided %+v",
						bk, i, r.Ref, r.Adversary, p, b, want.Backend, a)
				}
			}
		}

		golden, err := eng.NewAggregator(src.Label(), refs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			golden.Add(r)
		}
		sum, err := eng.SweepSource(ctx, refs, src)
		if err != nil {
			t.Fatalf("%s: SweepSource: %v", bk, err)
		}
		requireSummariesEqual(t, sum, golden.Summary(), bk.String())
		if bk == setconsensus.Wire && sum.Protocols[0].TotalBits == 0 {
			t.Fatal("wire sweep counted no bits")
		}

		for i, r := range results {
			fresh, err := eng.Run(ctx, r.Ref, advs[i/len(refs)])
			if err != nil {
				t.Fatalf("%s: Run %s: %v", bk, r.Ref, err)
			}
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: run %d: Sweep Result\n%s\ndiffers from a fresh Run's\n%s", bk, i, got, want)
			}
		}
	}
}
