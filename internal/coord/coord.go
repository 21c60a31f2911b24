// Package coord implements distributed checkpointed sweeps: a
// coordinator that shards one exhaustive adversary space across workers
// by offset range, hands out time-bounded leases, merges the returned
// partial Summaries, and journals every finished range to an
// append-only checkpoint so a killed sweep resumes where it left off.
//
// # Vocabulary
//
// A range is the unit of work: the window [offset, offset+limit) of a
// workload's deterministic enumeration order, exactly what
// enum.Space.Range and setconsensus.RangeSource yield. The coordinator
// takes the workload's adversary count up front (Params.Total; every
// built-in workload reports one, an exhaustive space its exact canonical
// count) and mints exactly the ranges that tile [0, Total): every limit
// is RangeSize, and a range must come back with min(RangeSize,
// Total−offset) adversaries, so only the last one is short.
//
// A lease is a time-bounded claim on one range by one worker. A lease
// that expires before its result arrives puts the range back in the
// pending queue for re-issue; semantics are at-least-once, and
// completions deduplicate by range offset, so a slow worker's late
// result and a re-issue's result merge exactly once.
//
// A checkpoint is the coordinator's durable state, kept as an
// append-only journal at exactly CheckpointPath: one line per record,
// each the CRC-32 (IEEE) of the record's JSON body as %08x, a space,
// the body, and a newline. The first record is a header (version 3,
// workload, refs, range size); after it comes one record per finished
// range (range, adversary count, summary) and one per charged failed
// attempt (a failure or lease expiry whose attempt was not refunded).
// Records are appended as the transitions happen, one write each, and
// nothing is rewritten, so the bytes written per sweep grow linearly
// with the range count. Leases are deliberately not journaled: on
// resume every unfinished range is issued again.
//
// Resume is New with a CheckpointPath whose file exists: the
// coordinator checks the header against workload, refs, and range size,
// then replays the longest prefix of intact records, deriving the
// finished set and each unfinished range's charged attempts. A torn or
// tampered tail — a SIGKILL or power loss mid-append, a flipped byte —
// fails its checksum; it is dropped, counted in
// Stats.CheckpointTailsDropped, cut off before the first new append,
// and its ranges are swept again. A file without an intact v3
// header is rejected and left untouched: ErrCheckpointVersion for the
// version 1 and 2 JSON checkpoints of earlier releases (they are not
// migrated; delete one to start over), ErrCheckpointCorrupt otherwise.
// The final merged Summary is byte-identical to a single-process
// Engine.SweepSource over the whole workload, because Summary.Merge is
// associative and commutative over the partition.
//
// # Fault tolerance
//
// Failed ranges are re-issued with capped exponential backoff and full
// jitter, bounded by MaxAttempts per range. A circuit breaker per
// worker quarantines a worker after BreakerThreshold consecutive
// failures, so a persistently bad worker stops burning range attempts
// and the sweep degrades gracefully to the healthy fleet; the failure
// that trips the breaker refunds its range attempt, attributing the
// fault to the worker rather than the range. A quarantined worker
// re-enters on probation after BreakerProbation (doubling per
// consecutive trip, capped at 8×): it gets exactly one trial range —
// success closes the breaker, failure re-quarantines. Every decision
// point is observable through Stats and the "setconsensuscoord" expvar
// map, and deterministically testable through the chaos.Injector
// threaded behind Params.Chaos.
package coord

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/chaos"
	"setconsensus/internal/service"
)

// The typed parameter errors. Validate wraps them with the offending
// values, so callers branch with errors.Is while logs keep the numbers.
var (
	// ErrRangeSize rejects a non-positive range size.
	ErrRangeSize = errors.New("coord: need a positive range size")
	// ErrLease rejects a non-positive lease duration.
	ErrLease = errors.New("coord: need a positive lease")
	// ErrMaxAttempts rejects a non-positive per-range attempt budget.
	ErrMaxAttempts = errors.New("coord: need a positive attempt budget")
	// ErrRetryBackoff rejects a negative retry backoff base.
	ErrRetryBackoff = errors.New("coord: negative retry backoff")
	// ErrBackoffCap rejects a retry backoff cap that is negative or
	// below the base — an exponential schedule that can never grow is a
	// misconfiguration, not a mode.
	ErrBackoffCap = errors.New("coord: bad retry backoff cap")
	// ErrBreaker rejects negative circuit-breaker parameters.
	ErrBreaker = errors.New("coord: bad circuit-breaker parameters")
	// ErrTotal rejects a workload count below one: the coordinator mints
	// the ranges of [0, Total) and cannot discover a space's end.
	ErrTotal = errors.New("coord: need the workload's adversary count")
)

// Range is the unit of distributed work: the window
// [Offset, Offset+Limit) of the workload's enumeration order.
type Range struct {
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Offset, r.Offset+r.Limit) }

// Params configures a Coordinator.
type Params struct {
	// RangeSize is the number of adversaries per minted range. Resume
	// requires the same size the checkpoint was written with.
	RangeSize int
	// Lease bounds how long a worker may hold a range before it is
	// re-issued to another worker.
	Lease time.Duration
	// MaxAttempts bounds how many times one range may be issued (first
	// grant included) before the sweep fails. Lease expiries count;
	// failures that trip a worker's breaker are refunded.
	MaxAttempts int
	// RetryBackoff is the base delay before re-issuing a failed range.
	// The actual delay grows exponentially with the attempt count,
	// capped at RetryBackoffCap, with full jitter (uniform in
	// [0, capped backoff]) so a burst of failures does not re-issue in
	// lockstep.
	RetryBackoff time.Duration
	// RetryBackoffCap caps the exponential re-issue backoff. Zero means
	// "no growth" (every delay jitters within the base); a non-zero cap
	// below the base is rejected by Validate with ErrBackoffCap.
	RetryBackoffCap time.Duration
	// BreakerThreshold is the number of consecutive failures (lease
	// expiries included) that quarantines a worker. Zero disables the
	// per-worker circuit breaker.
	BreakerThreshold int
	// BreakerProbation is how long a tripped worker sits quarantined
	// before it is re-admitted for a single trial range. Consecutive
	// trips double it, capped at 8× the configured value.
	BreakerProbation time.Duration
	// CheckpointPath, when non-empty, enables durable state: the
	// append-only journal at exactly this path is replayed on New when
	// it exists (resume), and every finished range or charged failed
	// attempt is appended to it as it happens. A torn or tampered tail
	// is dropped and re-swept; a version 1 or 2 checkpoint is rejected
	// with ErrCheckpointVersion.
	CheckpointPath string
	// ProgressInterval throttles the aggregated progress feed.
	ProgressInterval time.Duration
	// Total is the workload's adversary count, its Source's Count:
	// the coordinator mints exactly the ranges of [0, Total), checks
	// every finished range's count against it, and reports it in every
	// progress snapshot.
	Total int
	// Chaos, when non-nil, injects faults at the coordinator's named
	// injection points (dropped and duplicated completions, torn
	// checkpoint appends). Nil — the default — never fires. Workers
	// carry their own injector via WithChaos.
	Chaos chaos.Injector
}

// Default returns the coordinator defaults; RangeSize suits spaces of
// thousands of adversaries, tune down for coarse fault-injection tests.
func Default() Params {
	return Params{
		RangeSize:        256,
		Lease:            30 * time.Second,
		MaxAttempts:      3,
		RetryBackoff:     250 * time.Millisecond,
		RetryBackoffCap:  5 * time.Second,
		BreakerThreshold: 3,
		BreakerProbation: 5 * time.Second,
		ProgressInterval: 100 * time.Millisecond,
	}
}

// Validate rejects unusable parameter combinations, wrapping the typed
// errors above.
func (p Params) Validate() error {
	if p.RangeSize <= 0 {
		return fmt.Errorf("%w (got %d)", ErrRangeSize, p.RangeSize)
	}
	if p.Lease <= 0 {
		return fmt.Errorf("%w (got %v)", ErrLease, p.Lease)
	}
	if p.MaxAttempts <= 0 {
		return fmt.Errorf("%w (got %d)", ErrMaxAttempts, p.MaxAttempts)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("%w (got %v)", ErrRetryBackoff, p.RetryBackoff)
	}
	if p.RetryBackoffCap < 0 {
		return fmt.Errorf("%w: negative cap %v", ErrBackoffCap, p.RetryBackoffCap)
	}
	if p.RetryBackoffCap > 0 && p.RetryBackoffCap < p.RetryBackoff {
		return fmt.Errorf("%w: cap %v below base %v", ErrBackoffCap, p.RetryBackoffCap, p.RetryBackoff)
	}
	if p.BreakerThreshold < 0 {
		return fmt.Errorf("%w: negative threshold %d", ErrBreaker, p.BreakerThreshold)
	}
	if p.BreakerProbation < 0 {
		return fmt.Errorf("%w: negative probation %v", ErrBreaker, p.BreakerProbation)
	}
	if p.Total < 1 {
		return fmt.Errorf("%w (got %d)", ErrTotal, p.Total)
	}
	return nil
}

// rangeState tracks one minted, not-yet-completed range through the
// pending → leased (→ pending …) lifecycle. One record exists per
// offset; a re-issued range reuses it, so the attempt count survives
// lease turnover.
type rangeState struct {
	Range
	attempts  int       // grants so far, bounded by MaxAttempts
	overloads int       // consecutive shed/429 returns, scales backoff
	notBefore time.Time // earliest re-issue after a failure
	worker    string    // current leaseholder, "" when pending
	expiry    time.Time // lease expiry when leased
	liveAdv   int       // leaseholder's latest progress snapshot
	liveRuns  int
}

// breakerState is the lifecycle of one worker's circuit breaker:
// closed (healthy) → open (quarantined) → half-open (one probation
// trial in flight) → closed on success, open again on failure.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-worker failure ledger behind quarantine decisions.
type breaker struct {
	state       breakerState
	consecFails int       // consecutive failures while closed
	trips       int       // consecutive opens; scales probation
	reopenAt    time.Time // open: earliest probation trial
}

// Coordinator shards one workload across workers. Build with New, run
// with Run; a Coordinator is single-use.
type Coordinator struct {
	params   Params
	workload string // workload reference; also the merged Summary's label
	refs     []string

	mu       sync.Mutex
	next     int                           // next offset to mint
	pending  []*rangeState                 // claimable (possibly backoff-delayed), any order
	leased   map[int]*rangeState           // offset → outstanding lease
	done     map[int]*setconsensus.Summary // offset → completed range's summary
	carried  map[int]int                   // offset → attempts charged before a resume
	breakers map[string]*breaker           // worker name → circuit breaker
	doneAdv  int                           // adversaries across done ranges
	doneRuns int                           // runs across done ranges
	fatal    error                         // first unrecoverable error
	wake     chan struct{}                 // closed and replaced on every transition
	lastEmit time.Time                     // progress throttle
	progress func(setconsensus.SweepProgress)
	cancel   context.CancelFunc // cancels the run on fatal

	journal     *os.File // checkpoint journal, open from the first append
	journalSize int64    // bytes of intact records in the journal
	ckptWritten int64    // bytes handed to the journal's writer

	// Robustness counters, snapshotted by Stats.
	statRetries      int64 // failed ranges re-queued for another attempt
	statRefunds      int64 // range attempts refunded on breaker trips
	statOverloads    int64 // overloaded (shedding/429) returns backed off
	statExpiries     int64 // leases expired and re-issued
	statTrips        int64 // breaker transitions into quarantine
	statProbations   int64 // probation trial ranges granted
	statTailsDropped int64 // checkpoint loads that dropped a torn or tampered tail
}

// New builds a coordinator for one workload. workload is both the
// reference remote workers submit and the label of the merged Summary —
// pass the same string a single-process `-workload` run would use, so
// the merged result is byte-identical to the monolithic one. When
// p.CheckpointPath names an existing file, the coordinator resumes from
// it (and rejects a checkpoint written for a different workload, ref
// set, or range size). New only reads the file.
func New(workload string, refs []string, p Params) (*Coordinator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workload == "" {
		return nil, fmt.Errorf("coord: empty workload reference")
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("coord: no protocol refs")
	}
	c := &Coordinator{
		params:   p,
		workload: workload,
		refs:     append([]string(nil), refs...),
		leased:   make(map[int]*rangeState),
		done:     make(map[int]*setconsensus.Summary),
		carried:  make(map[int]int),
		breakers: make(map[string]*breaker),
		wake:     make(chan struct{}),
	}
	if p.CheckpointPath != "" {
		if err := c.loadCheckpoint(p.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Stats is a point-in-time snapshot of the coordinator's robustness
// counters — the coordinator's analogue of Engine.Stats, published
// process-wide through the "setconsensuscoord" expvar map.
type Stats struct {
	// RangesDone is the completed-range count so far.
	RangesDone int64 `json:"rangesDone"`
	// RangeRetries counts failed ranges re-queued for another attempt.
	RangeRetries int64 `json:"rangeRetries"`
	// AttemptsRefunded counts range attempts refunded because the
	// failure tripped the worker's breaker (fault attributed to the
	// worker, not the range).
	AttemptsRefunded int64 `json:"attemptsRefunded"`
	// OverloadBackoffs counts range returns classified as worker
	// overload (queue-full/shedding 429, draining 503): the attempt is
	// refunded and the range re-queued with backoff, without charging
	// the worker's breaker — a governed fleet sheds, it does not
	// quarantine healthy-but-busy workers.
	OverloadBackoffs int64 `json:"overloadBackoffs"`
	// LeaseExpiries counts leases that expired and were re-issued.
	LeaseExpiries int64 `json:"leaseExpiries"`
	// BreakerTrips counts transitions into quarantine.
	BreakerTrips int64 `json:"breakerTrips"`
	// ProbationGrants counts trial ranges granted to quarantined
	// workers after probation.
	ProbationGrants int64 `json:"probationGrants"`
	// QuarantinedWorkers is the gauge of workers currently open or on a
	// probation trial.
	QuarantinedWorkers int64 `json:"quarantinedWorkers"`
	// CheckpointTailsDropped counts checkpoint loads that dropped a torn
	// or tampered tail of the journal; its ranges are swept again.
	CheckpointTailsDropped int64 `json:"checkpointTailsDropped"`
	// FaultsInjected totals the chaos injector's fired faults, when one
	// is configured and countable.
	FaultsInjected int64 `json:"faultsInjected"`
}

// Stats snapshots the coordinator's robustness counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		RangesDone:             int64(len(c.done)),
		RangeRetries:           c.statRetries,
		AttemptsRefunded:       c.statRefunds,
		OverloadBackoffs:       c.statOverloads,
		LeaseExpiries:          c.statExpiries,
		BreakerTrips:           c.statTrips,
		ProbationGrants:        c.statProbations,
		CheckpointTailsDropped: c.statTailsDropped,
	}
	for _, b := range c.breakers {
		if b.state != breakerClosed {
			s.QuarantinedWorkers++
		}
	}
	if t, ok := c.params.Chaos.(interface{ Total() int64 }); ok {
		s.FaultsInjected = t.Total()
	}
	return s
}

// expvar publication is process-global and append-only, while tests
// build many coordinators — so the package publishes one
// "setconsensuscoord" Func reading whichever coordinator ran most
// recently, mirroring the service package's expvar shape.
var (
	expvarOnce  sync.Once
	activeCoord atomic.Pointer[Coordinator]
)

func publishExpvar(c *Coordinator) {
	activeCoord.Store(c)
	expvarOnce.Do(func() {
		expvar.Publish("setconsensuscoord", expvar.Func(func() any {
			if c := activeCoord.Load(); c != nil {
				return c.Stats()
			}
			return Stats{}
		}))
	})
}

// claim hands worker the next range: an expired or matured pending
// range first, else a freshly minted one. While every candidate is
// leased out or backing off — or while the worker itself is
// quarantined — it blocks until a transition wakes it or the nearest
// future deadline passes (claimWaitLocked). It returns ok=false when the
// sweep is complete, and an error when the run is cancelled or has
// failed fatally.
func (c *Coordinator) claim(ctx context.Context, worker string) (*rangeState, bool, error) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		now := time.Now()
		c.expireLeasesLocked(now)
		if c.fatal != nil {
			err := c.fatal
			c.mu.Unlock()
			return nil, false, err
		}
		if admitted, trial := c.workerAdmitLocked(worker, now); admitted {
			rs := c.takePendingLocked(now)
			if rs == nil {
				rs = c.mintLocked()
			}
			if rs != nil {
				c.grantLocked(rs, worker, now, trial)
				c.mu.Unlock()
				return rs, true, nil
			}
		}
		// Done: nothing left to mint, lease out or retry.
		if c.next >= c.params.Total && len(c.leased) == 0 && len(c.pending) == 0 {
			c.mu.Unlock()
			return nil, false, nil
		}
		wait, timed := c.claimWaitLocked(worker, now)
		wake := c.wake
		c.mu.Unlock()

		var tick <-chan time.Time
		if timed {
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			tick = timer.C
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-wake:
		case <-tick:
		}
	}
}

// claimWaitLocked is how long a claim that found nothing to take may
// block before it scans again: until the nearest future deadline among
// the lease expiries, the pending ranges' backoffs and the worker's own
// probation. timed=false means there is none, and only a transition
// can unblock the claim. A deadline the scan at now already acted on is
// skipped, so the wait is always positive: a lease expires once the
// clock is strictly after its expiry (expireLeasesLocked), so its
// deadline is one tick past it.
func (c *Coordinator) claimWaitLocked(worker string, now time.Time) (wait time.Duration, timed bool) {
	var next time.Time
	consider := func(t time.Time) {
		if t.After(now) && (next.IsZero() || t.Before(next)) {
			next = t
		}
	}
	for _, rs := range c.leased {
		consider(rs.expiry.Add(time.Nanosecond))
	}
	for _, rs := range c.pending {
		consider(rs.notBefore)
	}
	if b := c.breakers[worker]; b != nil && b.state == breakerOpen {
		consider(b.reopenAt)
	}
	if next.IsZero() {
		return 0, false
	}
	return next.Sub(now), true
}

// wakeLocked wakes every blocked claim to scan the changed state.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// failLocked records the run's first unrecoverable error, cancels the
// run, and wakes every blocked claim to return it.
func (c *Coordinator) failLocked(err error) {
	if c.fatal == nil {
		c.fatal = err
		if c.cancel != nil {
			c.cancel()
		}
	}
	c.wakeLocked()
}

// mintLocked returns the next range of the space not yet finished, or
// nil once every range of [0, Total) has been minted. Live, every offset
// below next has been minted; after a resume next restarts at 0 and the
// walk re-issues each unfinished range of the earlier run in offset
// order, with the attempts it was charged there.
func (c *Coordinator) mintLocked() *rangeState {
	for c.next < c.params.Total {
		off := c.next
		c.next += c.params.RangeSize
		if _, done := c.done[off]; done {
			continue
		}
		return &rangeState{Range: Range{Offset: off, Limit: c.params.RangeSize}, attempts: c.carried[off]}
	}
	return nil
}

// workerAdmitLocked decides whether worker may be granted a range right
// now. A quarantined worker is admitted once its probation matured;
// trial=true then marks the grant as the breaker's half-open trial.
func (c *Coordinator) workerAdmitLocked(worker string, now time.Time) (admitted, trial bool) {
	if c.params.BreakerThreshold <= 0 {
		return true, false
	}
	b := c.breakers[worker]
	if b == nil || b.state == breakerClosed {
		return true, false
	}
	if b.state == breakerOpen && !now.Before(b.reopenAt) {
		return true, true
	}
	return false, false // quarantined, or a probation trial already in flight
}

// expireLeasesLocked returns every expired lease to the pending queue
// and charges the silent leaseholder's breaker — an unresponsive worker
// is indistinguishable from a crashed one. An attempt that is not
// refunded is journaled.
func (c *Coordinator) expireLeasesLocked(now time.Time) {
	expired := false
	for off, rs := range c.leased {
		if now.After(rs.expiry) {
			holder := rs.worker
			rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
			delete(c.leased, off)
			c.pending = append(c.pending, rs)
			c.statExpiries++
			expired = true
			if c.noteWorkerFailureLocked(holder, now) && rs.attempts > 0 {
				rs.attempts--
				c.statRefunds++
			} else if err := c.appendLocked(journalEntry{Failed: &rs.Range}); err != nil {
				c.failLocked(err)
				return
			}
		}
	}
	if expired {
		c.wakeLocked()
	}
}

// takePendingLocked removes and returns the lowest-offset pending range
// whose backoff has matured, or nil.
func (c *Coordinator) takePendingLocked(now time.Time) *rangeState {
	best := -1
	for i, rs := range c.pending {
		if rs.notBefore.After(now) {
			continue
		}
		if best < 0 || rs.Offset < c.pending[best].Offset {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	rs := c.pending[best]
	c.pending = append(c.pending[:best], c.pending[best+1:]...)
	return rs
}

// grantLocked leases rs to worker and counts the attempt. A trial grant
// moves the worker's breaker to half-open: one range decides whether it
// re-joins the fleet or goes back into quarantine.
func (c *Coordinator) grantLocked(rs *rangeState, worker string, now time.Time, trial bool) {
	rs.attempts++
	rs.worker = worker
	rs.expiry = now.Add(c.params.Lease)
	rs.liveAdv, rs.liveRuns = 0, 0
	c.leased[rs.Offset] = rs
	if trial {
		c.breakerFor(worker).state = breakerHalfOpen
		c.statProbations++
	}
}

func (c *Coordinator) breakerFor(worker string) *breaker {
	b := c.breakers[worker]
	if b == nil {
		b = &breaker{}
		c.breakers[worker] = b
	}
	return b
}

// noteWorkerFailureLocked records one failure against worker's breaker
// and reports whether this failure tripped it closed → open — the
// signal to refund the range attempt, attributing the fault to the
// worker rather than the range. A failed half-open trial re-opens with
// escalated probation and no refund, so a poisoned range still runs
// into MaxAttempts eventually.
func (c *Coordinator) noteWorkerFailureLocked(worker string, now time.Time) (refund bool) {
	if c.params.BreakerThreshold <= 0 {
		return false
	}
	b := c.breakerFor(worker)
	if b.state == breakerHalfOpen {
		b.trips++
		b.state = breakerOpen
		b.reopenAt = now.Add(c.probationFor(b.trips))
		c.statTrips++
		return false
	}
	b.consecFails++
	if b.consecFails >= c.params.BreakerThreshold {
		b.consecFails = 0
		b.trips++
		b.state = breakerOpen
		b.reopenAt = now.Add(c.probationFor(b.trips))
		c.statTrips++
		return true
	}
	return false
}

// noteWorkerSuccessLocked closes worker's breaker: any success resets
// the consecutive-failure ledger and the probation escalation.
func (c *Coordinator) noteWorkerSuccessLocked(worker string) {
	if b := c.breakers[worker]; b != nil {
		b.state = breakerClosed
		b.consecFails, b.trips = 0, 0
	}
}

// probationFor scales the quarantine by consecutive trips: doubling per
// trip, capped at 8× the configured probation.
func (c *Coordinator) probationFor(trips int) time.Duration {
	p := c.params.BreakerProbation
	for i := 1; i < trips && i < 4; i++ {
		p *= 2
	}
	return p
}

// backoffFor computes the re-issue delay after a failed attempt:
// exponential in the attempt count from the RetryBackoff base, capped
// at RetryBackoffCap, with full jitter (uniform in [0, backoff]) so
// simultaneous failures do not re-issue in lockstep.
func (c *Coordinator) backoffFor(attempts int) time.Duration {
	base := c.params.RetryBackoff
	if base <= 0 {
		return 0
	}
	ceil := c.params.RetryBackoffCap
	if ceil <= 0 {
		ceil = base
	}
	d := base
	for i := 1; i < attempts && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// complete records one worker's outcome for rs. Success merges the
// summary (idempotently: a duplicate completion of an already-done
// offset is dropped) and journals the range; a summary whose count is
// not the range's share of the space fails the run. Failure charges the
// worker's breaker, journals the attempt unless the breaker refunded
// it, then re-queues the range with jittered exponential backoff until
// MaxAttempts grants are spent, then fails the whole run. Every
// transition wakes the blocked claims.
func (c *Coordinator) complete(ctx context.Context, worker string, rs *rangeState, sum *setconsensus.Summary, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off := rs.Offset

	if err != nil {
		// A cancelled run is not a worker failure: leave the range to the
		// checkpoint's pending set (leases are not persisted) and exit.
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return
		}
		// The lease may have expired and been re-issued while this worker
		// struggled; if someone else now owns or completed the range, this
		// stale failure is moot.
		if cur, ok := c.leased[off]; !ok || cur.worker != worker {
			return
		}
		if _, ok := c.done[off]; ok {
			return
		}
		now := time.Now()
		// Overload (queue-full/shedding 429, draining 503) is the worker
		// governing itself, not failing: refund the attempt, skip the
		// breaker, and re-queue with backoff scaled by consecutive
		// overloads so a ceilinged fleet drains instead of thrashing.
		if service.IsOverload(err) {
			rs.overloads++
			c.statOverloads++
			if rs.attempts > 0 {
				rs.attempts--
			}
			rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
			rs.notBefore = now.Add(c.backoffFor(rs.overloads))
			delete(c.leased, off)
			c.pending = append(c.pending, rs)
			c.wakeLocked()
			return
		}
		rs.overloads = 0
		if c.noteWorkerFailureLocked(worker, now) && rs.attempts > 0 {
			rs.attempts--
			c.statRefunds++
		} else if aerr := c.appendLocked(journalEntry{Failed: &rs.Range}); aerr != nil {
			c.failLocked(aerr)
			return
		}
		if rs.attempts >= c.params.MaxAttempts {
			c.failLocked(fmt.Errorf("coord: range %s failed after %d attempts: %w", rs.Range, rs.attempts, err))
			return
		}
		rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
		rs.notBefore = now.Add(c.backoffFor(rs.attempts))
		delete(c.leased, off)
		c.pending = append(c.pending, rs)
		c.statRetries++
		c.wakeLocked()
		return
	}

	c.noteWorkerSuccessLocked(worker)
	if _, dup := c.done[off]; dup {
		return // duplicate completion after a re-issue: first result won
	}
	count := sum.Adversaries()
	if want := c.wantCount(off); count != want {
		c.failLocked(fmt.Errorf("coord: range %s from %s yielded %d adversaries, want %d of a %d-adversary workload",
			rs.Range, worker, count, want, c.params.Total))
		return
	}
	delete(c.leased, off)
	c.dropPendingLocked(off)
	c.done[off] = sum
	c.doneAdv += count
	c.doneRuns += sum.Runs()
	if err := c.appendLocked(journalEntry{Done: &rs.Range, Count: count, Summary: sum}); err != nil {
		c.failLocked(err)
		return
	}
	c.wakeLocked()
	c.emitProgressLocked(true)
}

// wantCount is the number of adversaries the range at offset off holds:
// all RangeSize of them, except in the last range.
func (c *Coordinator) wantCount(off int) int {
	return min(c.params.RangeSize, c.params.Total-off)
}

// dropPendingLocked removes any queued re-issue of offset off.
func (c *Coordinator) dropPendingLocked(off int) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.Offset != off {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

// liveProgress folds one worker's in-range progress snapshot into the
// aggregated feed.
func (c *Coordinator) liveProgress(off int, p setconsensus.SweepProgress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rs, ok := c.leased[off]; ok {
		rs.liveAdv, rs.liveRuns = p.Adversaries, p.Runs
	}
	c.emitProgressLocked(false)
}

// emitProgressLocked streams the aggregated snapshot — completed ranges
// plus every live lease — throttled to ProgressInterval unless forced.
func (c *Coordinator) emitProgressLocked(force bool) {
	if c.progress == nil {
		return
	}
	now := time.Now()
	if !force && now.Sub(c.lastEmit) < c.params.ProgressInterval {
		return
	}
	c.lastEmit = now
	p := setconsensus.SweepProgress{Adversaries: c.doneAdv, Runs: c.doneRuns, Total: c.params.Total}
	for _, rs := range c.leased {
		p.Adversaries += rs.liveAdv
		p.Runs += rs.liveRuns
	}
	c.progress(p)
}

// Run executes the sweep on the given workers until every range of the
// space has completed, then returns the merged Summary.
// progress, when non-nil, receives throttled aggregate SweepProgress
// snapshots. On cancellation Run returns ctx's error with the
// checkpoint (when configured) holding everything completed so far; a
// later Run resumes from it.
func (c *Coordinator) Run(ctx context.Context, workers []Worker, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("coord: no workers")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	publishExpvar(c)

	c.mu.Lock()
	c.progress = progress
	c.cancel = cancel
	// Open the journal eagerly: a kill before the first completion must
	// still leave a loadable file.
	if err := c.openJournalLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			for {
				rs, ok, err := c.claim(runCtx, w.Name())
				if err != nil || !ok {
					return
				}
				sum, serr := w.Sweep(runCtx, rs.Range, func(p setconsensus.SweepProgress) {
					c.liveProgress(rs.Offset, p)
				})
				if serr == nil {
					// The completion path is itself an injection surface:
					// a dropped completion loses a finished range on the
					// way back (the lease expiry re-issues it), a
					// duplicated completion delivers it twice (the merge
					// must stay idempotent).
					if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointDropCompletion); fire {
						continue
					}
					if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointDupCompletion); fire {
						c.complete(runCtx, w.Name(), rs, sum, nil)
					}
				}
				c.complete(runCtx, w.Name(), rs, sum, serr)
			}
		}(w)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	cerr := c.closeJournalLocked()
	if c.fatal != nil {
		return nil, c.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	sum, err := c.mergedLocked()
	if err != nil {
		return nil, err
	}
	if progress != nil {
		c.progress = nil // final snapshot below supersedes the feed
		progress(setconsensus.SweepProgress{Adversaries: c.doneAdv, Runs: c.doneRuns, Total: c.params.Total})
	}
	return sum, nil
}

// mergedLocked verifies that the done set tiles [0, Total) and folds the
// per-range summaries, in offset order, into one Summary labeled with
// the workload — the same label a monolithic sweep would carry. It
// merges exactly the offsets it verified, and fails on any other done
// range. (Every done range holds its share of the space: complete and
// the journal replay admit no other.)
func (c *Coordinator) mergedLocked() (*setconsensus.Summary, error) {
	for off := range c.done {
		if off >= c.params.Total || off%c.params.RangeSize != 0 {
			return nil, fmt.Errorf("coord: completed range at offset %d lies outside the space's tiling of [0,%d)", off, c.params.Total)
		}
	}
	merged := agg.New(c.workload, c.refs)
	for off := 0; off < c.params.Total; off += c.params.RangeSize {
		sum, ok := c.done[off]
		if !ok {
			return nil, fmt.Errorf("coord: range at offset %d missing from completed set", off)
		}
		if err := merged.Merge(sum); err != nil {
			return nil, fmt.Errorf("coord: merging range at offset %d: %w", off, err)
		}
	}
	return merged, nil
}
