package setconsensus

import "testing"

// TestInsertBoundedEviction pins the FIFO invariant: at most bound live
// entries, oldest evicted first, duplicate keys left in place.
func TestInsertBoundedEviction(t *testing.T) {
	m := map[int]int{}
	var order []int
	const bound = 4
	for k := 0; k < 10; k++ {
		insertBounded(m, &order, k, k*k, bound)
	}
	if len(m) != bound || len(order) != bound {
		t.Fatalf("cache holds %d/%d entries, want %d", len(m), len(order), bound)
	}
	for i, k := range order {
		if want := 6 + i; k != want {
			t.Fatalf("order[%d] = %d, want %d", i, k, want)
		}
		if m[k] != k*k {
			t.Fatalf("m[%d] = %d, want %d", k, m[k], k*k)
		}
	}
	// Re-inserting an existing key neither duplicates nor reorders.
	insertBounded(m, &order, 7, -1, bound)
	if len(order) != bound || m[7] != 49 {
		t.Fatalf("duplicate insert mutated the cache: order=%v m[7]=%d", order, m[7])
	}
	// bound ≤ 0 disables insertion outright.
	var order0 []int
	m0 := map[int]int{}
	insertBounded(m0, &order0, 1, 1, 0)
	if len(m0) != 0 || len(order0) != 0 {
		t.Fatalf("bound 0 inserted anyway: %v %v", m0, order0)
	}
}

// TestInsertBoundedReleasesEvicted is the regression test for the
// FIFO-eviction slice leak: the old *order = (*order)[1:] advanced the
// slice window but kept every evicted key alive in the backing array
// prefix, pinning adversary pointers and graph keys for the life of the
// engine. Eviction now copies down and zeroes the vacated slot, so the
// backing array holds live keys only and its capacity stays bounded
// forever.
func TestInsertBoundedReleasesEvicted(t *testing.T) {
	m := map[*int]int{}
	var order []*int
	const bound = 8
	for k := 0; k < bound; k++ {
		insertBounded(m, &order, new(int), k, bound)
	}
	capAtBound := cap(order)
	for k := 0; k < 100*bound; k++ {
		insertBounded(m, &order, new(int), k, bound)
	}
	// Copy-down reuses the same backing array forever: once the slice
	// reached the bound it never grows again, where the [1:] version
	// marched through the array and reallocated repeatedly.
	if cap(order) != capAtBound {
		t.Errorf("backing array grew from %d to %d; eviction is not in place", capAtBound, cap(order))
	}
	if len(order) != bound {
		t.Fatalf("order holds %d keys, want %d", len(order), bound)
	}
	// No stale pointers beyond the live window: everything in the backing
	// array past len is zeroed, so evicted keys are collectable.
	full := order[:cap(order)]
	for i := len(order); i < len(full); i++ {
		if full[i] != nil {
			t.Fatalf("evicted key still pinned at backing slot %d", i)
		}
	}
}

// TestChunkSizeForDegenerate covers the degenerate source-count cases:
// a lying Count (known with count ≤ 0), a zero worker total, and the
// boundary where count barely exceeds the workers.
func TestChunkSizeForDegenerate(t *testing.T) {
	cases := []struct {
		count   int
		known   bool
		workers int
		want    int
	}{
		{count: 0, known: false, workers: 4, want: sourceChunk}, // unknown stream
		{count: 0, known: true, workers: 4, want: sourceChunk},  // lying Count: stream anyway
		{count: -3, known: true, workers: 4, want: sourceChunk}, // nonsense negative count
		{count: 5, known: true, workers: 0, want: 1},            // clamped worker total
		{count: 5, known: true, workers: 4, want: 1},            // count slightly above workers
		{count: 1000000, known: true, workers: 4, want: sourceChunk},
		{count: 64, known: true, workers: 4, want: 4},
	}
	for _, c := range cases {
		if got := chunkSizeFor(c.count, c.known, c.workers); got != c.want {
			t.Errorf("chunkSizeFor(%d, %v, %d) = %d, want %d", c.count, c.known, c.workers, got, c.want)
		}
	}
}
