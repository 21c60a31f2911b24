package main

import (
	"context"
	"slices"
	"testing"

	setconsensus "setconsensus"
)

// FuzzBuildAdversary feeds arbitrary -inputs, -crash and -t flags to the
// single-run adversary builder. No flags may panic it. An adversary it
// accepts must pass Validate, list its crashers in strictly increasing
// order, and run optmin to completion on the engine runSingle builds
// from the returned bound. Adversaries over more than 16 processes or
// with inputs above 64 are not run: a run's value sets grow with the
// largest input.
func FuzzBuildAdversary(f *testing.F) {
	for _, s := range []struct {
		inputs, crash string
		t             int
	}{
		// TestBuildAdversaryFromFlags, TestBuildAdversarySilent and
		// TestBuildAdversaryErrors.
		{"0,1,1,1", "0@1:1;2@2:*", -1},
		{"1,1,1", "1@1:", 2},
		{"", "", -1},
		{"a,b", "", -1},
		{"1,1", "0@x:", -1},
		{"1,1", "0:1", -1},
		{"1,1", "0@1", -1},
		{"1,1", "0@1:9", -1},
		{"1,1", "zz@1:", -1},
		{"1,1", "0@1:;0@2:", -1},
		// The package doc: a silent crash, a delivery list, a complete
		// send, several crashes separated by ';'.
		{"0,2,2,2,2,2", "1@1:", 3},
		{"0,1,2,3", "1@1:2,3;3@2:*", -1},
		// Malformed crashes the engine ran before it validated them.
		{"0,1,1", "9@1:", -1},
		{"0,1,1", "-1@1:", -1},
		{"0,1,1", "0@0:", -1},
		{"-3,0,1", "1@1:0", -1},
		{"0,1,1", "0@9223372036854775807:", -1},
		{"0,1,1", "", 7},
	} {
		f.Add(s.inputs, s.crash, s.t)
	}
	f.Fuzz(func(t *testing.T, inputs, crash string, bound int) {
		adv, tb, err := buildAdversary(inputs, crash, bound)
		if err != nil {
			return
		}
		if err := adv.Validate(-1, -1); err != nil {
			t.Fatalf("accepted %q %q: %v", inputs, crash, err)
		}
		cs := adv.Pattern.Crashes
		for i := 1; i < len(cs); i++ {
			if cs[i-1].Proc >= cs[i].Proc {
				t.Fatalf("accepted %q %q with crashers out of order: %s", inputs, crash, adv.Pattern)
			}
		}
		if adv.N() > 16 || slices.Max(adv.Inputs) > 64 {
			return
		}
		eng := setconsensus.New(setconsensus.WithCrashBound(tb), setconsensus.WithDegree(1))
		if _, err := eng.Run(context.Background(), "optmin", adv); err != nil {
			t.Fatalf("accepted %q %q (t=%d) but the run failed: %v", inputs, crash, tb, err)
		}
	})
}
