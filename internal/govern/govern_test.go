package govern

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	g.Grow(100)
	g.Shrink(50)
	g.NoteShed()
	g.NotePanic()
	g.NoteWatchdog()
	if g.Live() != 0 {
		t.Fatalf("nil governor Live = %d", g.Live())
	}
	if g.Shedding() {
		t.Fatal("nil governor sheds")
	}
	if !g.Retain() {
		t.Fatal("nil governor refuses retention")
	}
	if err := g.Admit(1 << 40); err != nil {
		t.Fatalf("nil governor rejects: %v", err)
	}
	if g.Stats() != (Stats{}) {
		t.Fatalf("nil governor stats = %+v", g.Stats())
	}
}

func TestCeilings(t *testing.T) {
	g := New(100, 200)

	g.Grow(90)
	if g.Shedding() {
		t.Fatal("shedding below the soft ceiling")
	}
	if !g.Retain() {
		t.Fatal("retention refused below the soft ceiling")
	}
	if err := g.Admit(0); err != nil {
		t.Fatalf("admit under both ceilings: %v", err)
	}

	g.Grow(20) // live 110 > soft 100
	if !g.Shedding() {
		t.Fatal("not shedding above the soft ceiling")
	}
	if g.Retain() {
		t.Fatal("retaining above the soft ceiling")
	}
	if err := g.Admit(0); err != nil {
		t.Fatalf("soft ceiling must not reject admissions: %v", err)
	}
	if err := g.Admit(100); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("admit over the hard ceiling = %v, want ErrMemoryBudget", err)
	}

	g.Grow(100) // live 210 > hard 200
	if err := g.Admit(0); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("admit at live>hard = %v, want ErrMemoryBudget", err)
	}

	g.Shrink(150) // live 60: the admission level clears immediately...
	if err := g.Admit(0); err != nil {
		t.Fatalf("still rejecting after shrink: %v", err)
	}
	if g.Live() != 60 {
		t.Fatalf("Live = %d, want 60", g.Live())
	}
	// ...but the shed latch holds for ShedHoldoff past the last
	// over-ceiling observation, then decays on its own.
	if !g.Shedding() {
		t.Fatal("shed latch released on the first dip below the ceiling")
	}
	waitNotShedding(t, g)
}

// waitNotShedding polls until the shed latch decays, failing the test
// if it outlives several holdoffs.
func waitNotShedding(t *testing.T, g *Governor) {
	t.Helper()
	deadline := time.Now().Add(8 * ShedHoldoff)
	for g.Shedding() {
		if time.Now().After(deadline) {
			t.Fatal("shed latch never decayed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShedLatchReArms(t *testing.T) {
	g := New(100, 0)
	g.Grow(150)
	g.Shrink(150)
	if !g.Shedding() {
		t.Fatal("not shedding within the holdoff")
	}
	// A fresh over-ceiling observation re-arms the latch: the shed
	// state must outlive the *last* spike, not the first.
	time.Sleep(ShedHoldoff / 2)
	g.Grow(150)
	g.Shrink(150)
	time.Sleep(3 * ShedHoldoff / 4)
	if !g.Shedding() {
		t.Fatal("latch decayed relative to the first spike, not the last")
	}
	waitNotShedding(t, g)
}

func TestUnlimitedCeilings(t *testing.T) {
	g := New(0, 0)
	g.Grow(1 << 40)
	if g.Shedding() {
		t.Fatal("unlimited governor sheds")
	}
	if err := g.Admit(1 << 40); err != nil {
		t.Fatalf("unlimited governor rejects: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	g := New(10, 20)
	g.Grow(15)
	g.NoteShed()
	g.NoteShed()
	g.NotePanic()
	g.NoteWatchdog()
	st := g.Stats()
	want := Stats{LiveBytes: 15, SoftLimitBytes: 10, HardLimitBytes: 20,
		Sheds: 2, PanicsRecovered: 1, WatchdogCancels: 1}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	g := New(0, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Grow(7)
				g.Shrink(7)
			}
		}()
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("Live = %d after balanced grow/shrink", g.Live())
	}
}

func TestCaptureConvertsPanic(t *testing.T) {
	run := func() (err error) {
		defer Capture("test op", &err)
		panic("boom")
	}
	err := run()
	pe, ok := AsPanic(err)
	if !ok {
		t.Fatalf("Capture produced %T, want *PanicError", err)
	}
	if pe.Op != "test op" || pe.Value != "boom" {
		t.Fatalf("PanicError = %+v", pe)
	}
	// The stack must retain the panic-origin frame, not just the
	// recovery site: that is the whole point of capturing inside the
	// recovering defer.
	if !strings.Contains(string(pe.Stack), "TestCaptureConvertsPanic") {
		t.Fatalf("stack lost the panic origin:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "test op") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestCaptureNoPanicLeavesError(t *testing.T) {
	sentinel := errors.New("ordinary failure")
	run := func() (err error) {
		defer Capture("test op", &err)
		return sentinel
	}
	if err := run(); !errors.Is(err, sentinel) {
		t.Fatalf("Capture clobbered the ordinary error: %v", err)
	}
}

func TestRecoveredNil(t *testing.T) {
	if pe := Recovered("op", nil); pe != nil {
		t.Fatalf("Recovered(nil) = %v", pe)
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	w := NewWatchdog()
	fired := make(chan time.Duration, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.Watch(ctx, 20*time.Millisecond, func(idle time.Duration) { fired <- idle })
	select {
	case idle := <-fired:
		if idle < 20*time.Millisecond {
			t.Fatalf("fired with idle %v < deadline", idle)
		}
	default:
		t.Fatal("watchdog returned without firing")
	}
}

func TestWatchdogQuietWhileTouched(t *testing.T) {
	w := NewWatchdog()
	ctx, cancel := context.WithCancel(context.Background())
	var fired bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Watch(ctx, 80*time.Millisecond, func(time.Duration) { fired = true })
	}()
	for i := 0; i < 10; i++ {
		time.Sleep(15 * time.Millisecond)
		w.Touch()
	}
	cancel()
	<-done
	if fired {
		t.Fatal("watchdog fired despite steady Touches")
	}
}

// parseBytesCases are ParseBytes's table: an input, and the quantity
// it means or that it is rejected.
var parseBytesCases = []struct {
	in   string
	want int64
	err  bool
}{
	{"", 0, false},
	{"0", 0, false},
	{"1024", 1024, false},
	{"64K", 64 << 10, false},
	{"64k", 64 << 10, false},
	{"512M", 512 << 20, false},
	{"512MiB", 512 << 20, false},
	{"512mb", 512 << 20, false},
	{"2G", 2 << 30, false},
	{"1T", 1 << 40, false},
	{" 2G ", 2 << 30, false},
	{"-1", 0, true},
	{"12x", 0, true},
	{"G", 0, true},
	{"9999999999G", 0, true},
}

func TestParseBytes(t *testing.T) {
	for _, c := range parseBytesCases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
