package govern

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Shards is the worker pool of every parallel engine stage: it runs
// body once per worker w behind the panic boundary labelled op, returns
// the first error, and cancels the other workers' context on it; it
// returns only once every worker has. At one worker it runs body inline
// with the caller's context and starts no goroutine: the sequential
// stage is the parallel stage with one shard.
func Shards(ctx context.Context, op string, workers int, body func(ctx context.Context, w int) error) error {
	if workers <= 1 {
		return shard(ctx, op, 0, body)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := shard(ctx, op, w, body); err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// shard runs worker w's body behind the pool's panic boundary.
func shard(ctx context.Context, op string, w int, body func(ctx context.Context, w int) error) (err error) {
	defer Capture(op, &err)
	return body(ctx, w)
}

// Progress is one snapshot of a Feed's open stage.
type Progress struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Feed is the progress feed of every parallel engine stage, driven by
// the stage's own workers, with no goroutine of its own. A stage's
// caller opens it with Stage before the pool runs and closes it with
// Flush after the pool returns; in between, an Add delivers only once
// every has passed since the last delivery. A worker never waits: with
// a delivery in flight it skips, so deliveries never overlap, and each
// re-reads the counter, so Done never decreases within a stage. A nil
// *Feed is a no-op.
type Feed struct {
	fn    func(Progress)
	every time.Duration
	epoch time.Time // the clock origin of due

	mu    sync.Mutex // held while delivering
	stage string     // stage and total change only between pool runs
	total int
	done  atomic.Int64
	due   atomic.Int64 // time.Since(epoch) at which the next Add delivers
}

// NewFeed returns a feed delivering to fn (nil for a nil fn); every ≤ 0
// lets every Add deliver.
func NewFeed(every time.Duration, fn func(Progress)) *Feed {
	if fn == nil {
		return nil
	}
	return &Feed{fn: fn, every: every, epoch: time.Now()}
}

// Stage opens a stage of total units and delivers its Done = 0
// snapshot. Call it only while no worker of the feed runs.
func (f *Feed) Stage(name string, total int) {
	if f == nil {
		return
	}
	f.stage, f.total = name, total
	f.done.Store(0)
	f.Flush()
}

// Add records n finished units of the open stage and delivers a
// snapshot if one is due and none is in flight. Safe for concurrent use.
func (f *Feed) Add(n int) {
	if f == nil {
		return
	}
	f.done.Add(int64(n))
	due := f.due.Load()
	if time.Since(f.epoch) < time.Duration(due) || !f.mu.TryLock() {
		return
	}
	defer f.mu.Unlock()
	if f.due.Load() == due { // no other worker delivered since the check
		f.deliver()
	}
}

// Flush delivers the open stage's closing snapshot, Done = Total once
// every unit was added. Call it after the stage's pool has returned.
func (f *Feed) Flush() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deliver()
}

// deliver hands fn the current snapshot and schedules the next (f.mu held).
func (f *Feed) deliver() {
	f.due.Store(int64(time.Since(f.epoch) + f.every))
	f.fn(Progress{Stage: f.stage, Done: int(f.done.Load()), Total: f.total})
}
