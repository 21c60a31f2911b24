package chaos

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestSeededDeterminism: two injectors with the same config visited in
// the same order make identical decisions — the property the chaos soak
// test's "seeded fault schedule" rests on.
func TestSeededDeterminism(t *testing.T) {
	cfg := Config{
		Seed:     42,
		Prob:     map[Point]float64{PointWorkerCrash: 0.3, PointStraggler: 0.2},
		MaxDelay: 5 * time.Millisecond,
	}
	a, err := NewSeeded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeeded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := PointWorkerCrash
		if i%3 == 0 {
			p = PointStraggler
		}
		af, ad := a.Fault(p)
		bf, bd := b.Fault(p)
		if af != bf || ad != bd {
			t.Fatalf("visit %d of %s diverged: (%v,%v) vs (%v,%v)", i, p, af, ad, bf, bd)
		}
	}
	if a.Total() == 0 {
		t.Fatal("schedule fired nothing in 500 visits at p=0.3")
	}
}

// TestBudgetBounds: a budget caps total fires; a budget with no
// probability means "the first N visits fire" — exactly-once faults.
func TestBudgetBounds(t *testing.T) {
	s, err := NewSeeded(Config{Seed: 1, Budget: map[Point]int{PointTornCheckpoint: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var fires int
	for i := 0; i < 50; i++ {
		if f, _ := s.Fault(PointTornCheckpoint); f {
			if i != 0 {
				t.Errorf("budget-only point fired on visit %d, want first", i)
			}
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("torn fired %d times, budget 1", fires)
	}
	if got := s.Counts()[PointTornCheckpoint]; got != 1 {
		t.Errorf("Counts() = %d, want 1", got)
	}
}

// TestNilInjectorNeverFires pins the production default: nil costs a
// check and never fires.
func TestNilInjectorNeverFires(t *testing.T) {
	for _, p := range Points {
		if f, d := Fire(nil, p); f || d != 0 {
			t.Errorf("nil injector fired at %s", p)
		}
	}
}

// TestStragglerDelayBounded: fired straggler visits carry a delay in
// (0, MaxDelay]; other points never carry a delay.
func TestStragglerDelayBounded(t *testing.T) {
	max := 3 * time.Millisecond
	s, err := NewSeeded(Config{Seed: 9, Prob: map[Point]float64{PointStraggler: 1, PointWorkerCrash: 1}, MaxDelay: max})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f, d := s.Fault(PointStraggler)
		if !f {
			t.Fatal("p=1 straggler did not fire")
		}
		if d <= 0 || d > max {
			t.Fatalf("straggler delay %v outside (0, %v]", d, max)
		}
	}
	if _, d := s.Fault(PointWorkerCrash); d != 0 {
		t.Errorf("crash point carried delay %v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown point", Config{Prob: map[Point]float64{"nope": 0.5}}},
		{"probability above 1", Config{Prob: map[Point]float64{PointWorkerCrash: 1.5}}},
		{"negative probability", Config{Prob: map[Point]float64{PointWorkerCrash: -0.1}}},
		{"NaN probability", Config{Prob: map[Point]float64{PointWorkerCrash: math.NaN()}}},
		{"negative budget", Config{Budget: map[Point]int{PointWorkerCrash: -1}}},
		{"negative delay", Config{MaxDelay: -time.Second}},
	} {
		if _, err := NewSeeded(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// goodSpec composes every clause form the -chaos flag takes.
const goodSpec = "seed=7,crash=0.5,straggler=0.25,delay=20ms,torn#1,dup=0.5#3,sse"

// badSpecs are specs ParseSpec must reject.
var badSpecs = []string{
	"bogus=0.5", "crash=2.0", "seed=x", "delay=fast", "torn#x", "crash=0.5#?",
	"crash=NaN", "crash=nan#1", "crash=-Inf", "crash=+Inf", "crash#-1", "delay=-1s",
}

// TestParseSpec covers the CLI surface: probabilities, budgets, both
// composed, seed and delay clauses, bare names, and rejections.
func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(goodSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Seed != 7 {
		t.Errorf("seed = %d, want 7", s.cfg.Seed)
	}
	if s.cfg.MaxDelay != 20*time.Millisecond {
		t.Errorf("delay = %v, want 20ms", s.cfg.MaxDelay)
	}
	if s.cfg.Prob[PointWorkerCrash] != 0.5 || s.cfg.Prob[PointStraggler] != 0.25 {
		t.Errorf("probs = %v", s.cfg.Prob)
	}
	if s.cfg.Budget[PointTornCheckpoint] != 1 || s.cfg.Budget[PointDupCompletion] != 3 {
		t.Errorf("budgets = %v", s.cfg.Budget)
	}
	if s.cfg.Prob[PointDupCompletion] != 0.5 {
		t.Errorf("dup prob = %v, want 0.5", s.cfg.Prob[PointDupCompletion])
	}
	if s.cfg.Prob[PointSSEDisconnect] != 1 {
		t.Errorf("bare sse prob = %v, want 1", s.cfg.Prob[PointSSEDisconnect])
	}

	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestSeededString renders fired counts in stable order.
func TestSeededString(t *testing.T) {
	s, err := NewSeeded(Config{Prob: map[Point]float64{PointWorkerCrash: 1, PointTornCheckpoint: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s.Fault(PointTornCheckpoint)
	s.Fault(PointWorkerCrash)
	s.Fault(PointWorkerCrash)
	if got, want := s.String(), "crash=2 torn=1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSleepCancels: Sleep returns early with ctx's error.
func TestSleepCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); err == nil {
		t.Fatal("Sleep outlived a cancelled ctx")
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero-delay Sleep: %v", err)
	}
}
