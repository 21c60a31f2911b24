// Package chaos is a deterministic, seedable fault injector for the
// distributed-sweep stack. Production code asks the injector, at named
// injection points, whether a fault fires on this visit; the default
// nil injector never fires and costs one nil check, so the chaos
// surface is free in ordinary runs.
//
// The point of the package is reproducibility: a Seeded injector with
// the same Config makes the same decisions in the same visit order, so
// a chaos soak test is a fixed fault schedule, not a flake. Budgets
// bound how many times a point may fire ("exactly one torn checkpoint
// write"), probabilities shape the schedule, and per-point counters
// report what actually fired so tests can assert the schedule was
// exercised rather than silently skipped.
package chaos

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site. The sites are threaded through
// internal/coord (coordinator loop, both worker transports, checkpoint
// save) and internal/service (client request and stream path).
type Point string

const (
	// PointWorkerCrash kills a worker mid-range: the sweep returns an
	// error as if the process died, exercising retry and the breaker.
	PointWorkerCrash Point = "crash"
	// PointStraggler stalls a worker before its range, exercising lease
	// expiry and re-issue.
	PointStraggler Point = "straggler"
	// PointDropCompletion loses a finished range's completion on the way
	// back to the coordinator, exercising lease-expiry re-issue of work
	// that actually succeeded.
	PointDropCompletion Point = "drop"
	// PointDupCompletion delivers a finished range's completion twice,
	// exercising idempotent merge.
	PointDupCompletion Point = "dup"
	// PointHTTPError fails one client HTTP request with a synthetic
	// transient error, exercising the client retry path.
	PointHTTPError Point = "http"
	// PointSSEDisconnect severs a client event stream mid-flight,
	// exercising SSE reconnect.
	PointSSEDisconnect Point = "sse"
	// PointPanic panics inside a running job's worker, exercising the
	// service's panic isolation: the job must fail typed (stack
	// retained) while the daemon keeps serving.
	PointPanic Point = "panic"
	// PointTornCheckpoint tears a checkpoint append: only the first
	// half of the journal record reaches the file, a short write the
	// coordinator must repair by cutting the file back to the end of
	// the last intact record and appending the record again.
	PointTornCheckpoint Point = "torn"
)

// Points lists every known injection point in stable order.
var Points = []Point{
	PointWorkerCrash, PointStraggler, PointDropCompletion, PointDupCompletion,
	PointHTTPError, PointSSEDisconnect, PointPanic, PointTornCheckpoint,
}

func knownPoint(p Point) bool {
	for _, q := range Points {
		if q == p {
			return true
		}
	}
	return false
}

// Injector decides, per visit of a named point, whether the fault
// fires and — for delay-flavored points — how long the injected stall
// lasts. Implementations must be safe for concurrent use. A nil
// Injector is the production default; call the package-level Fire so
// nil never fires.
type Injector interface {
	Fault(p Point) (fire bool, delay time.Duration)
}

// Fire consults inj at point p, treating a nil injector as "never".
func Fire(inj Injector, p Point) (bool, time.Duration) {
	if inj == nil {
		return false, 0
	}
	return inj.Fault(p)
}

// Sleep blocks for d or until ctx is cancelled — the ctx-aware stall
// used by straggler injection sites.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Config shapes a Seeded injector: one probability per point (0 = the
// point never fires), an optional per-point budget bounding total
// fires (0 = unbounded), and the delay range for stall points.
type Config struct {
	// Seed fixes the decision stream; two injectors with equal configs
	// make identical decisions in identical visit orders.
	Seed uint64
	// Prob maps a point to its per-visit fire probability in [0,1].
	Prob map[Point]float64
	// Budget bounds the total fires per point; 0 means unbounded. A
	// budget with no probability set implies probability 1 — "the next
	// N visits fire", the shape "exactly one torn write" wants.
	Budget map[Point]int
	// MaxDelay bounds the injected stall of PointStraggler (drawn
	// uniformly from (0, MaxDelay]); 0 disables the delay even when the
	// point fires.
	MaxDelay time.Duration
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	for p, pr := range c.Prob {
		if !knownPoint(p) {
			return fmt.Errorf("chaos: unknown injection point %q", p)
		}
		if !(pr >= 0 && pr <= 1) { // NaN too: it compares false to both bounds
			return fmt.Errorf("chaos: point %s probability %v outside [0,1]", p, pr)
		}
	}
	for p, b := range c.Budget {
		if !knownPoint(p) {
			return fmt.Errorf("chaos: unknown injection point %q", p)
		}
		if b < 0 {
			return fmt.Errorf("chaos: point %s budget %d, want ≥ 0", p, b)
		}
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("chaos: negative max delay %v", c.MaxDelay)
	}
	return nil
}

// Seeded is the deterministic Injector: a seeded PRNG drives per-point
// Bernoulli draws, budgets cap total fires, and counters record every
// decision. Safe for concurrent use; concurrency makes the interleaving
// of draws scheduling-dependent, but the schedule is still bounded by
// the budgets and reproducible for a fixed visit order.
type Seeded struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	fired  map[Point]int64
	visits map[Point]int64
}

// NewSeeded builds a Seeded injector from cfg.
func NewSeeded(cfg Config) (*Seeded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Seeded{
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		fired:  make(map[Point]int64),
		visits: make(map[Point]int64),
	}, nil
}

// Fault implements Injector.
func (s *Seeded) Fault(p Point) (bool, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.visits[p]++
	prob, probSet := s.cfg.Prob[p]
	budget, budgetSet := s.cfg.Budget[p]
	if !probSet && budgetSet {
		prob = 1 // budget-only points fire on their first visits
	}
	if prob <= 0 {
		return false, 0
	}
	if budgetSet && budget > 0 && s.fired[p] >= int64(budget) {
		return false, 0
	}
	if prob < 1 && s.rng.Float64() >= prob {
		return false, 0
	}
	s.fired[p]++
	var delay time.Duration
	if p == PointStraggler && s.cfg.MaxDelay > 0 {
		delay = time.Duration(s.rng.Int64N(int64(s.cfg.MaxDelay))) + 1
	}
	return true, delay
}

// Counts snapshots how many times each point fired.
func (s *Seeded) Counts() map[Point]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Point]int64, len(s.fired))
	for p, n := range s.fired {
		out[p] = n
	}
	return out
}

// Total reports the total faults fired across all points.
func (s *Seeded) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, c := range s.fired {
		n += c
	}
	return n
}

// String renders the fired counts in stable point order, e.g.
// "crash=3 straggler=1 torn=1"; empty when nothing fired.
func (s *Seeded) String() string {
	counts := s.Counts()
	parts := make([]string, 0, len(counts))
	for _, p := range Points {
		if n := counts[p]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", p, n))
		}
	}
	return strings.Join(parts, " ")
}

// ParseSpec builds a Seeded injector from a comma-separated spec, the
// CLI surface of the package:
//
//	seed=7,crash=0.1,straggler=0.05,delay=20ms,drop=0.02,dup=0.02,http=0.1,sse=0.1,torn#1
//
// Each point takes either a probability ("crash=0.1") or a budget
// ("torn#1" — fire on the first visit, at most once; "crash=0.5#3"
// composes both). "seed=N" fixes the PRNG, "delay=D" the straggler
// stall bound (Go duration syntax).
func ParseSpec(spec string) (*Seeded, error) {
	cfg := Config{
		Prob:     make(map[Point]float64),
		Budget:   make(map[Point]int),
		MaxDelay: 10 * time.Millisecond,
	}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, hasVal := strings.Cut(f, "=")
		key = strings.TrimSpace(key)
		switch key {
		case "seed":
			if !hasVal {
				return nil, fmt.Errorf("chaos: seed needs a value in %q", f)
			}
			n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", val, err)
			}
			cfg.Seed = n
			continue
		case "delay":
			if !hasVal {
				return nil, fmt.Errorf("chaos: delay needs a value in %q", f)
			}
			d, err := time.ParseDuration(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("chaos: bad delay %q: %v", val, err)
			}
			cfg.MaxDelay = d
			continue
		}
		// Point clause: name[=prob][#budget], budget attached to either
		// the bare name or the probability.
		name, budget, hasBudget := strings.Cut(key, "#")
		probStr := ""
		if hasVal {
			probStr = val
			if !hasBudget {
				probStr, budget, hasBudget = cutBudget(val)
			}
		}
		p := Point(strings.TrimSpace(name))
		if !knownPoint(p) {
			return nil, fmt.Errorf("chaos: unknown injection point %q in %q (known: %v)", name, f, Points)
		}
		if probStr = strings.TrimSpace(probStr); probStr != "" {
			pr, err := strconv.ParseFloat(probStr, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad probability %q for %s: %v", probStr, p, err)
			}
			cfg.Prob[p] = pr
		}
		if hasBudget {
			b, err := strconv.Atoi(strings.TrimSpace(budget))
			if err != nil {
				return nil, fmt.Errorf("chaos: bad budget %q for %s: %v", budget, p, err)
			}
			cfg.Budget[p] = b
		}
		if !hasVal && !hasBudget {
			cfg.Prob[p] = 1 // bare point name: always fire
		}
	}
	return NewSeeded(cfg)
}

func cutBudget(s string) (prob, budget string, ok bool) {
	prob, budget, ok = strings.Cut(s, "#")
	return
}

// SortedPoints returns m's keys in stable order — a rendering helper
// for logs and stats lines.
func SortedPoints(m map[Point]int64) []Point {
	out := make([]Point, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
