package setconsensus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	setconsensus "setconsensus"
)

// TestBackendsThroughOneWorker runs all three backends through both
// halves of the one sweep worker — the escaping half behind Sweep and
// the folding half behind SweepSource — on an exhaustive k=2 space:
//   - Sweep decisions agree run by run across Oracle, Goroutines and
//     Wire;
//   - on each backend, the SweepSource Summary equals Aggregator.Add
//     folded over that backend's Sweep Results, wire bits included;
//   - every Sweep Result marshals to the same JSON as a fresh Engine.Run
//     of its protocol and adversary, compared only after the whole sweep
//     has returned, so no detached Result aliases a worker's buffer. The
//     graph stats agree too: both built-in protocols have the horizon
//     ⌊t/k⌋+1, so a sweep's shared graph is a lone run's.
func TestBackendsThroughOneWorker(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1, 2}}
	advs, err := space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	var first []*setconsensus.Result
	for _, bk := range []setconsensus.BackendKind{setconsensus.Oracle, setconsensus.Goroutines, setconsensus.Wire} {
		eng := setconsensus.New(
			setconsensus.WithBackend(bk),
			setconsensus.WithCrashBound(2),
			setconsensus.WithDegree(2),
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
			adv := advs[i/len(refs)]
			fresh, err := eng.Run(ctx, r.Ref, adv)
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
