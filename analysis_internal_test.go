package setconsensus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// hookProtocol never decides; on every run where process 0 starts with
// 1 it calls hook at time 1. Those runs lie well inside the enumeration
// of a search space, so the hook fires on a sweep-executor worker in the
// middle of the compile stage.
type hookProtocol struct{ hook func() }

func (hookProtocol) Name() string               { return "hook" }
func (hookProtocol) WorstCaseDecisionTime() int { return 3 }
func (p hookProtocol) Decide(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
	if m == 1 && g.Adv.Inputs[0] == 1 {
		p.hook()
	}
	return 0, false
}

// hookEngine builds an engine whose analysis registry holds the
// built-in Optmin search plus "search:hook", a deviation search over
// hookProtocol.
func hookEngine(t *testing.T, par int, hook func()) *Engine {
	t.Helper()
	optmin, err := DefaultRegistry().Lookup("optmin")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.MustRegister(*optmin)
	reg.MustRegister(ProtocolSpec{
		Name:          "hook",
		WorstCaseTime: func(Params) int { return 3 },
		New:           func(Params) (Protocol, error) { return hookProtocol{hook: hook}, nil },
	})
	analyses := NewAnalysisRegistry()
	analyses.MustRegister(searchAnalysisSpec("search:optmin", nil, "optmin", false))
	analyses.MustRegister(searchAnalysisSpec("search:hook", nil, "hook", false))
	return New(WithRegistry(reg), WithAnalyses(analyses), WithParallelism(par))
}

// settleGoroutines waits for the goroutine count to fall back to want;
// a count still above it after a second is a leak.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the analysis, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

const hookRef = "search:hook:n=3,t=2,r=2,k=1,width=1"

// TestAnalyzeCompilePanicIsolated pins panic isolation on the compile
// workers: a protocol panic mid-compile comes back from Analyze as a
// *govern.PanicError carrying the panicking frames, the worker's kit is
// discarded rather than repooled, no goroutine survives the call, and
// the same engine's next analysis runs normally.
func TestAnalyzeCompilePanicIsolated(t *testing.T) {
	ctx := context.Background()
	want, err := New().Analyze(ctx, "search:optmin:n=3,t=2,r=2,width=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := hookEngine(t, par, func() { panic("hookProtocol: boom") })
			_, err := e.Analyze(ctx, hookRef)
			pe, ok := govern.AsPanic(err)
			if !ok {
				t.Fatalf("Analyze = %v, want a *govern.PanicError", err)
			}
			if !strings.Contains(string(pe.Stack), "hookProtocol.Decide") {
				t.Fatalf("panic stack lacks the panicking Decide frame:\n%s", pe.Stack)
			}
			// Every kit the compile checked out was fresh; the panicking
			// worker's never came back to the freelist.
			e.kitMu.Lock()
			pooled := len(e.kitFree)
			e.kitMu.Unlock()
			if checkedOut := int(e.Stats().RunKitMisses); pooled >= checkedOut {
				t.Fatalf("%d of %d kits repooled after a worker panic, want the panicking worker's discarded", pooled, checkedOut)
			}
			settleGoroutines(t, before)

			got, err := e.Analyze(ctx, "search:optmin:n=3,t=2,r=2,width=2")
			if err != nil {
				t.Fatalf("analysis after a recovered panic: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("analysis after a recovered panic diverges:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestAnalyzeCompileCancelled cancels the context from inside the
// compile stage and requires Analyze to return ctx.Err().
func TestAnalyzeCompileCancelled(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := hookEngine(t, par, cancel).Analyze(ctx, hookRef)
			if err == nil || !errors.Is(err, ctx.Err()) {
				t.Fatalf("Analyze cancelled mid-compile = %v, want %v", err, ctx.Err())
			}
			settleGoroutines(t, before)
		})
	}
}
