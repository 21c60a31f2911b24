// Package govern is the engine-wide resource governor: byte-metered
// memory ceilings over the arena/pool allocation choke points, panic
// isolation for protocol and workload code, a stuck-job watchdog, and
// the one worker pool (Shards) and progress feed (Feed) that every
// parallel engine stage starts its workers through and reports through.
//
// The governor is deliberately dumb: it is a single atomic live-byte
// account with two configurable ceilings. Metered allocation sites
// (knowledge storage arenas, the run and window buffers of run kits)
// call Grow when capacity is created and Shrink when it is freed. Crossing
// the soft ceiling flips Retain to false — pools stop recycling and
// release their buffers back to the GC, and the job service starts
// shedding new submissions (HTTP 429) while staying ready for the work
// it already admitted. The shed state is latched with ShedHoldoff of
// hysteresis: the account oscillates at allocation cadence (arenas are
// built and freed every few microseconds), so shedding decays only
// after a full holdoff passes with no over-ceiling observation, keeping
// readiness and retention decisions stable. Crossing the hard ceiling
// makes Admit reject new admissions with ErrMemoryBudget. Neither
// ceiling ever aborts running
// work: degradation is monotone (recycle → shed → reject), never
// destructive.
//
// All Governor methods are safe on a nil receiver (everything
// ungoverned is a no-op that retains and admits), so callers thread a
// possibly-nil *Governor without branching.
package govern

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrMemoryBudget rejects a new admission while live metered bytes
// exceed the hard ceiling. The job service maps it to HTTP 429 with a
// Retry-After header: the condition is transient — it clears as running
// jobs finish and release their arenas.
var ErrMemoryBudget = errors.New("govern: live arena bytes exceed the hard memory ceiling")

// ErrStalled is the cancellation cause the watchdog uses for a job
// whose progress feed has not advanced within the progress deadline.
var ErrStalled = errors.New("govern: no progress within the deadline")

// ShedHoldoff is the hysteresis window of the soft ceiling: once live
// bytes are observed over the ceiling, the governor stays in shedding
// mode until a full holdoff passes with no further over-ceiling
// observation. Without it the shed signal flaps at allocation cadence —
// a sweep's account oscillates between zero and its working set every
// few microseconds as arenas are built and freed, so an instantaneous
// live>soft comparison is true at release sites but almost never at the
// instants /readyz probes or submissions happen to sample.
const ShedHoldoff = 250 * time.Millisecond

// Governor is the shared byte account. One Governor serves a whole
// process (every per-job Engine of the service meters into the same
// instance); all methods are safe for concurrent use and on a nil
// receiver.
type Governor struct {
	soft int64 // retention/shedding ceiling; 0 = unlimited
	hard int64 // admission ceiling; 0 = unlimited

	live            atomic.Int64 // metered bytes currently allocated
	shedUntil       atomic.Int64 // UnixNano the shed latch holds until
	sheds           atomic.Int64 // submissions shed (soft or hard ceiling)
	panicsRecovered atomic.Int64
	watchdogCancels atomic.Int64
}

// New builds a Governor with the given ceilings in bytes; zero (or
// negative) disables the respective ceiling. Ceiling ordering is the
// caller's contract to validate — the governor itself only compares.
func New(soft, hard int64) *Governor {
	g := &Governor{}
	if soft > 0 {
		g.soft = soft
	}
	if hard > 0 {
		g.hard = hard
	}
	return g
}

// Grow records n freshly allocated metered bytes. Crossing the soft
// ceiling arms the shed latch for ShedHoldoff from now; a sweep that
// keeps allocating over the ceiling re-arms it continuously, so the
// shed state holds steady for its whole duration instead of flickering
// with the per-run account.
func (g *Governor) Grow(n int64) {
	if g == nil || n == 0 {
		return
	}
	if live := g.live.Add(n); g.soft > 0 && live > g.soft {
		g.shedUntil.Store(time.Now().Add(ShedHoldoff).UnixNano())
	}
}

// Shrink records n metered bytes released back to the GC.
func (g *Governor) Shrink(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.live.Add(-n)
}

// Live reports the metered bytes currently allocated.
func (g *Governor) Live() int64 {
	if g == nil {
		return 0
	}
	return g.live.Load()
}

// Shedding reports whether the governor is in shedding mode — the
// state in which pools free instead of recycling and the service
// answers new submissions with 429 and /readyz with 503. It is true
// while live bytes exceed the soft ceiling and, by hysteresis, for
// ShedHoldoff after the last over-ceiling observation: the shed state
// decays by time, not on the first instantaneous dip of the account,
// so readiness is a stable signal rather than an allocation-rate strobe.
func (g *Governor) Shedding() bool {
	if g == nil || g.soft == 0 {
		return false
	}
	if g.live.Load() > g.soft {
		return true
	}
	return time.Now().UnixNano() < g.shedUntil.Load()
}

// Retain reports whether pools may keep released buffers. It is the
// inverse of Shedding, named for the call sites: release paths ask
// "may I retain this?" and drop the buffer on false.
func (g *Governor) Retain() bool { return !g.Shedding() }

// Admit checks whether n more metered bytes fit under the hard
// ceiling, returning a wrapped ErrMemoryBudget when they do not. n may
// be zero: "is there any headroom at all", the admission check of a
// job whose footprint cannot be sized up front.
func (g *Governor) Admit(n int64) error {
	if g == nil || g.hard == 0 {
		return nil
	}
	if live := g.live.Load(); live+n > g.hard {
		return fmt.Errorf("%w: %d live + %d requested > %d", ErrMemoryBudget, live, n, g.hard)
	}
	return nil
}

// NoteShed counts one shed submission.
func (g *Governor) NoteShed() {
	if g != nil {
		g.sheds.Add(1)
	}
}

// NotePanic counts one recovered worker panic.
func (g *Governor) NotePanic() {
	if g != nil {
		g.panicsRecovered.Add(1)
	}
}

// NoteWatchdog counts one stuck-job cancellation.
func (g *Governor) NoteWatchdog() {
	if g != nil {
		g.watchdogCancels.Add(1)
	}
}

// Stats is a point-in-time snapshot of the governor's gauges, the feed
// behind the service's expvar map and /metrics exposition.
type Stats struct {
	LiveBytes       int64 `json:"liveBytes"`
	SoftLimitBytes  int64 `json:"softLimitBytes"`
	HardLimitBytes  int64 `json:"hardLimitBytes"`
	Sheds           int64 `json:"sheds"`
	PanicsRecovered int64 `json:"panicsRecovered"`
	WatchdogCancels int64 `json:"watchdogCancels"`
}

// Stats snapshots the governor; a nil governor snapshots to zeros.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		LiveBytes:       g.live.Load(),
		SoftLimitBytes:  g.soft,
		HardLimitBytes:  g.hard,
		Sheds:           g.sheds.Load(),
		PanicsRecovered: g.panicsRecovered.Load(),
		WatchdogCancels: g.watchdogCancels.Load(),
	}
}

// PanicError is a worker panic converted into an ordinary, typed job
// failure: the panic value and the panicking goroutine's stack,
// captured at the recovery site so the panic-origin frames are
// retained. It flows out of the engine like any other run error and
// ends the job in StateFailed instead of ending the process.
type PanicError struct {
	Op    string // what was running, e.g. "engine: sweep worker"
	Value any    // the recover() value
	Stack []byte // debug.Stack() at the recovery site
}

// Error renders the panic with its stack — the job's Error string is
// the operator's only copy of the evidence.
func (e *PanicError) Error() string {
	return fmt.Sprintf("govern: panic in %s: %v\n%s", e.Op, e.Value, e.Stack)
}

// Recovered converts a recover() result into a *PanicError, nil when r
// is nil (no panic in flight). It must be called from the recovering
// defer itself so debug.Stack() still includes the panic-origin frames.
func Recovered(op string, r any) *PanicError {
	if r == nil {
		return nil
	}
	return &PanicError{Op: op, Value: r, Stack: debug.Stack()}
}

// Capture is the one-line defer form of Recovered:
//
//	defer govern.Capture("engine: sweep worker", &err)
//
// It recovers an in-flight panic and stores the typed conversion into
// *errp, leaving an already-set error alone only if no panic occurred.
func Capture(op string, errp *error) {
	if pe := Recovered(op, recover()); pe != nil {
		*errp = pe
	}
}

// AsPanic unwraps err to its *PanicError, if any.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Watchdog cancels jobs whose progress feed has gone quiet. Progress
// callbacks call Touch; Watch ticks and fires the stalled callback once
// when no Touch has arrived within the deadline. Touch is one atomic
// store, cheap enough for any progress cadence, and safe on a nil
// receiver so ungoverned paths need no branch.
type Watchdog struct {
	last atomic.Int64 // UnixNano of the most recent Touch
}

// NewWatchdog returns a watchdog whose clock starts now: a job that
// never reports progress at all still trips after one deadline.
func NewWatchdog() *Watchdog {
	w := &Watchdog{}
	w.Touch()
	return w
}

// Touch records a progress advance.
func (w *Watchdog) Touch() {
	if w != nil {
		w.last.Store(time.Now().UnixNano())
	}
}

// Watch blocks until ctx ends or the deadline passes without a Touch,
// invoking stalled (once, with the observed idle time) in the latter
// case. The check period is a quarter of the deadline, so a stall is
// detected within 1.25 deadlines.
func (w *Watchdog) Watch(ctx context.Context, deadline time.Duration, stalled func(idle time.Duration)) {
	if w == nil || deadline <= 0 {
		return
	}
	period := deadline / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if idle := time.Since(time.Unix(0, w.last.Load())); idle >= deadline {
				stalled(idle)
				return
			}
		}
	}
}

// ParseBytes parses a human byte quantity for the -memlimit flags:
// a plain integer is bytes, and a K/M/G/T suffix (optionally followed
// by "B" or "iB", case-insensitive) scales by powers of 1024 — the
// same units debug.SetMemoryLimit's GOMEMLIMIT syntax uses. Empty and
// "0" mean no limit.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	shift := 0
	switch {
	case strings.HasSuffix(upper, "K"):
		shift, upper = 10, upper[:len(upper)-1]
	case strings.HasSuffix(upper, "M"):
		shift, upper = 20, upper[:len(upper)-1]
	case strings.HasSuffix(upper, "G"):
		shift, upper = 30, upper[:len(upper)-1]
	case strings.HasSuffix(upper, "T"):
		shift, upper = 40, upper[:len(upper)-1]
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("govern: bad byte quantity %q (want e.g. 512M, 2G, or plain bytes)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("govern: byte quantity must be ≥ 0, got %q", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("govern: byte quantity %q overflows", s)
	}
	return n << shift, nil
}
