package govern

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFeedConcurrentAdds drives a feed from 8 goroutines through two
// stages, once delivering at every add and once on an interval no add
// reaches: deliveries never overlap, each stage opens at 0, Done never
// decreases within a stage, the flush delivers Done = Total, and nothing
// arrives after it.
func TestFeedConcurrentAdds(t *testing.T) {
	const workers, adds = 8, 500
	for _, every := range []time.Duration{0, time.Hour} {
		var (
			inFlight atomic.Int32
			got      []Progress // appended only by serialized deliveries
		)
		f := NewFeed(every, func(p Progress) {
			if inFlight.Add(1) != 1 {
				t.Error("two deliveries overlap")
			}
			got = append(got, p)
			inFlight.Add(-1)
		})
		for _, stage := range []struct {
			name string
			unit int
		}{{"one", 1}, {"three", 3}} {
			got = got[:0]
			total := workers * adds * stage.unit
			f.Stage(stage.name, total)
			var wg sync.WaitGroup
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range adds {
						f.Add(stage.unit)
					}
				}()
			}
			wg.Wait()
			f.Flush()
			flushed := len(got)
			if got[0] != (Progress{Stage: stage.name, Done: 0, Total: total}) {
				t.Errorf("every %v: stage %s opened with %+v", every, stage.name, got[0])
			}
			for i, p := range got {
				if p.Stage != stage.name || p.Total != total {
					t.Errorf("every %v: delivery %+v in stage %s of %d", every, p, stage.name, total)
				}
				if i > 0 && p.Done < got[i-1].Done {
					t.Errorf("every %v: Done went backwards: %d after %d", every, p.Done, got[i-1].Done)
				}
			}
			if last := got[flushed-1]; last.Done != total {
				t.Errorf("every %v: stage %s flushed %+v, want Done = %d", every, stage.name, last, total)
			}
			if every == time.Hour && flushed != 2 {
				t.Errorf("every %v: stage %s delivered %d snapshots, want only its open and flush", every, stage.name, flushed)
			}
			time.Sleep(10 * time.Millisecond)
			if len(got) != flushed {
				t.Errorf("every %v: %d deliveries arrived after the flush", every, len(got)-flushed)
			}
		}
	}
}

// TestNilFeedIsNoOp: a feed without a consumer is nil, and a nil feed
// accepts every call without allocating.
func TestNilFeedIsNoOp(t *testing.T) {
	f := NewFeed(time.Millisecond, nil)
	if f != nil {
		t.Fatalf("NewFeed(nil callback) = %v, want nil", f)
	}
	if n := testing.AllocsPerRun(10, func() {
		f.Stage("stage", 10)
		f.Add(1)
		f.Flush()
	}); n != 0 {
		t.Fatalf("a nil feed allocates %v times", n)
	}
}

// TestShardsFirstErrorCancelsOthers: a worker's error cancels the
// context of every other worker and is what Shards returns, and a
// panicking worker's panic returns as a typed error labelled with the
// pool's op, at one worker (run inline, on the caller's context) as at
// four.
func TestShardsFirstErrorCancelsOthers(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	err := Shards(ctx, "test pool", 4, func(ctx context.Context, w int) error {
		if w == 0 {
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Shards = %v, want the failing worker's error", err)
	}
	for _, workers := range []int{1, 4} {
		err := Shards(ctx, "test pool", workers, func(c context.Context, w int) error {
			if workers == 1 && c != ctx {
				t.Error("one worker ran on a derived context")
			}
			if w == workers-1 {
				panic("worker panic")
			}
			<-c.Done()
			return nil
		})
		pe, ok := AsPanic(err)
		if !ok || pe.Op != "test pool" || !strings.Contains(pe.Error(), "worker panic") {
			t.Fatalf("%d workers: Shards = %v, want a PanicError from test pool", workers, err)
		}
	}
}
