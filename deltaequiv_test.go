package setconsensus_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	setconsensus "setconsensus"
)

// summaryBytes renders a summary as JSON with the workload label blanked,
// so sweeps of the same adversaries through differently labeled sources
// can be compared byte for byte.
func summaryBytes(t *testing.T, s *setconsensus.Summary) []byte {
	t.Helper()
	s.Workload = ""
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeltaSweepMatchesCanonicalRandomized is the equivalence guarantee
// behind the delta-order sweep path: on randomized spaces, the engine's
// streamed sweep — which enters the Gray-code enumeration, aligns worker
// chunks to pattern blocks, and patches knowledge graphs between
// single-input neighbours — must produce a Summary byte-identical to a
// sweep of the same adversaries materialized as a slice, where every
// graph is built from scratch. Randomized offset windows additionally
// enter pattern blocks mid-way (Range's resume entry points), where
// patching must re-seed from a full build. Run under -race this also
// exercises the sharded fold across parallel workers.
func TestDeltaSweepMatchesCanonicalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	refs := []string{"upmin", "floodmin"}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(2)   // 2..3 processes
		f := 1 + rng.Intn(n-1) // 1..n-1 crashes
		maxRound := 1 + rng.Intn(2)
		values := []int{0, 1}
		if rng.Intn(2) == 0 {
			values = []int{0, 1, 2}
		}
		space := setconsensus.Space{N: n, T: f, MaxRound: maxRound, Values: values}
		eng := setconsensus.New(
			setconsensus.WithCrashBound(f),
			setconsensus.WithParallelism(2),
		)

		advs, err := space.Adversaries()
		if err != nil {
			t.Fatal(err)
		}
		spaceSrc, err := setconsensus.SpaceSource(space)
		if err != nil {
			t.Fatal(err)
		}

		// Full space: delta-order stream vs materialized slice.
		deltaSum, err := eng.SweepSource(context.Background(), refs, spaceSrc)
		if err != nil {
			t.Fatal(err)
		}
		sliceSum, err := eng.SweepSource(context.Background(), refs, setconsensus.SliceSource(advs...))
		if err != nil {
			t.Fatal(err)
		}
		got, want := summaryBytes(t, deltaSum), summaryBytes(t, sliceSum)
		if string(got) != string(want) {
			t.Fatalf("%s: delta sweep diverges from canonical slice:\n%s\n%s", space.Label(), got, want)
		}

		// Random window, deliberately not aligned to the pattern block:
		// the range source resumes the Gray code mid-block, so the first
		// adversary of the window must rebuild, not patch.
		off := rng.Intn(len(advs))
		lim := 1 + rng.Intn(len(advs)-off)
		rangeSum, err := eng.SweepSource(context.Background(), refs,
			setconsensus.RangeSource(spaceSrc, off, lim))
		if err != nil {
			t.Fatal(err)
		}
		windowSum, err := eng.SweepSource(context.Background(), refs,
			setconsensus.SliceSource(advs[off:off+lim]...))
		if err != nil {
			t.Fatal(err)
		}
		got, want = summaryBytes(t, rangeSum), summaryBytes(t, windowSum)
		if string(got) != string(want) {
			t.Fatalf("%s: Range(%d,%d) sweep diverges from canonical window:\n%s\n%s",
				space.Label(), off, lim, got, want)
		}
	}
}
