package setconsensus_test

import (
	"context"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/govern"
)

// TestGovernedSweepByteIdentical pins the governance invariant that
// shedding is a memory mode, not a result mode: the same sweep run on
// an ungoverned engine, a governed engine with room to retain, and a
// governed engine shedding the whole way (soft ceiling of one byte, so
// every Release frees instead of recycling) renders byte-identical
// Summary tables.
func TestGovernedSweepByteIdentical(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}

	render := func(t *testing.T, opts ...setconsensus.Option) string {
		t.Helper()
		src, err := setconsensus.SpaceSource(space)
		if err != nil {
			t.Fatal(err)
		}
		eng := setconsensus.New(append([]setconsensus.Option{
			setconsensus.WithCrashBound(2),
		}, opts...)...)
		sum, err := eng.SweepSource(ctx, refs, src)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		return setconsensus.SummaryTable(sum).Render()
	}

	plain := render(t)
	retained := render(t, setconsensus.WithGovernor(govern.New(0, 0)))
	shedding := render(t, setconsensus.WithGovernor(govern.New(1, 0)))

	if retained != plain {
		t.Errorf("governed (retaining) summary differs from ungoverned:\n%s\n---\n%s", retained, plain)
	}
	if shedding != plain {
		t.Errorf("governed (shedding) summary differs from ungoverned:\n%s\n---\n%s", shedding, plain)
	}
}

// TestGovernedEngineAccountingDrains pins the ledger: a governed sweep
// meters a nonzero live-byte account while its pools are warm, shedding
// mode holds the steady-state account near zero, and Engine.Close
// returns every byte — the invariant that lets one governor meter many
// short-lived per-job engines without drift.
func TestGovernedEngineAccountingDrains(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin"}
	src, err := setconsensus.SpaceSource(setconsensus.Space{N: 3, T: 1, MaxRound: 2, Values: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}

	gov := govern.New(0, 0)
	eng := setconsensus.New(
		setconsensus.WithCrashBound(1),
		setconsensus.WithGovernor(gov),
	)
	if _, err := eng.SweepSource(ctx, refs, src); err != nil {
		t.Fatal(err)
	}
	if gov.Live() <= 0 {
		t.Fatalf("live account = %d after a governed sweep with warm pools, want > 0", gov.Live())
	}
	eng.Close()
	if gov.Live() != 0 {
		t.Fatalf("live account = %d after Close, want 0 — bytes leaked or double-counted", gov.Live())
	}

	// Shedding: with a 1-byte soft ceiling nothing is retained between
	// runs, so after the sweep the account holds only what Close would
	// free anyway, and Close still zeroes it exactly.
	shedGov := govern.New(1, 0)
	shedEng := setconsensus.New(
		setconsensus.WithCrashBound(1),
		setconsensus.WithGovernor(shedGov),
	)
	src2, err := setconsensus.SpaceSource(setconsensus.Space{N: 3, T: 1, MaxRound: 2, Values: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shedEng.SweepSource(ctx, refs, src2); err != nil {
		t.Fatal(err)
	}
	if shedGov.Stats().Sheds == 0 && shedGov.Live() > 0 {
		t.Logf("note: shedding engine retained %d bytes", shedGov.Live())
	}
	shedEng.Close()
	if shedGov.Live() != 0 {
		t.Fatalf("shedding engine live account = %d after Close, want 0", shedGov.Live())
	}
}

// TestGovernedEveryPathDrains extends the ledger to every path, since
// each builds its graphs in a governed Builder and claims into a kit's
// metered window buffer: Run, Sweep, SweepSourceStream, and SweepSource
// over a pulled stream (the test above sweeps a space), each on a fresh
// governed engine, and once more with a panicking emit, whose kit is
// retired mid-sweep. Each leaves a nonzero account while its kits are warm —
// the panicking one excepted — and Close returns every byte.
func TestGovernedEveryPathDrains(t *testing.T) {
	ctx := context.Background()
	refs := []string{"optmin", "upmin"}
	space := setconsensus.Space{N: 3, T: 1, MaxRound: 2, Values: []int{0, 1}}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name   string
		panics bool
		run    func(eng *setconsensus.Engine) error
	}{
		{"Run", false, func(eng *setconsensus.Engine) error {
			_, err := eng.Run(ctx, "optmin", advs[len(advs)-1])
			return err
		}},
		{"Sweep", false, func(eng *setconsensus.Engine) error {
			_, err := eng.Sweep(ctx, refs, advs)
			return err
		}},
		{"SweepSourceStream", false, func(eng *setconsensus.Engine) error {
			return eng.SweepSourceStream(ctx, refs, src, func(*setconsensus.Result) {})
		}},
		{"SweepSource/stream", false, func(eng *setconsensus.Engine) error {
			_, err := eng.SweepSource(ctx, refs, setconsensus.FuncSource("stream", -1, src.Seq()))
			return err
		}},
		{"SweepSourceStream/panic", true, func(eng *setconsensus.Engine) error {
			seen := 0
			return eng.SweepSourceStream(ctx, refs, src, func(*setconsensus.Result) {
				if seen++; seen == 100 {
					panic("emit: boom")
				}
			})
		}},
	}
	for _, path := range paths {
		gov := govern.New(0, 0)
		eng := setconsensus.New(setconsensus.WithCrashBound(1), setconsensus.WithParallelism(2), setconsensus.WithGovernor(gov))
		err := path.run(eng)
		if _, ok := govern.AsPanic(err); ok != path.panics {
			t.Fatalf("%s: %v", path.name, err)
		}
		if !path.panics && gov.Live() <= 0 {
			t.Errorf("%s: live account = %d with warm kits, want > 0", path.name, gov.Live())
		}
		eng.Close()
		if gov.Live() != 0 {
			t.Errorf("%s: live account = %d after Close, want 0", path.name, gov.Live())
		}
	}
}
