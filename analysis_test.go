package setconsensus_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/topology"
)

func analysisEngine(par int, opts ...setconsensus.Option) *setconsensus.Engine {
	return setconsensus.New(append([]setconsensus.Option{setconsensus.WithParallelism(par)}, opts...)...)
}

// TestAnalyzeParallelEquivalence pins the acceptance contract:
// Engine.Analyze with Parallelism 1 and Parallelism N produce identical
// AnalysisReports, field for field, for every built-in family. For the
// searches that covers the compile stage too: at Parallelism N it runs
// as N fragments on the sweep executor, merged back in space order, so
// view ids, counters and the witness — rebuilt from its run's offset on
// the beaten u-Pmin[2] space — must not move. Run with -race in CI this
// also exercises the fragment merge, the sharded candidate testing and
// the certificate accumulators.
func TestAnalyzeParallelEquivalence(t *testing.T) {
	refs := []string{
		"search:optmin:n=3,t=2,r=2,width=2",
		"search:upmin:n=3,t=2,r=2,width=2",
		"search:upmin:n=3,t=2,k=2,width=2",
		"search:optmin:n=4,t=2,r=2,k=2,width=1",
		"lemma2:c=2",
		"forced:k=2",
	}
	ctx := context.Background()
	for _, ref := range refs {
		t.Run(ref, func(t *testing.T) {
			seq, err := analysisEngine(1).Analyze(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Search != nil && seq.Search.Beaten && seq.Search.Witness.Adversary == "" {
				t.Fatalf("beaten search without a strict-win adversary: %+v", seq.Search.Witness)
			}
			for _, par := range []int{2, 3, 4, 8} {
				got, err := analysisEngine(par).Analyze(ctx, ref)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("parallelism %d diverges:\nseq: %+v\npar: %+v", par, seq, got)
				}
			}
		})
	}
}

// TestAnalyzeSearchMatchesDirectSearch pins that the Engine's pooled
// compile path produces exactly the report of the direct sequential
// Search over the same configuration.
func TestAnalyzeSearchMatchesDirectSearch(t *testing.T) {
	ctx := context.Background()
	rep, err := analysisEngine(4).Analyze(ctx, "search:optmin:n=3,t=2,r=3,width=2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := setconsensus.NewProtocol("optmin", setconsensus.Params{N: 3, T: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := setconsensus.Search(ctx, base, setconsensus.SearchParams{
		Space: setconsensus.Space{N: 3, T: 2, MaxRound: 3, Values: []int{0, 1}},
		K:     1, T: 2, Width: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Search, direct) {
		t.Fatalf("engine compile path diverges from direct search:\nengine: %+v\ndirect: %+v", rep.Search, direct)
	}
}

// TestAnalyzeOptminN5 is the n=5 tier: Optmin[2] stays unbeaten at width
// 1 on the 2,391,363-run space with five processes and two crashes.
func TestAnalyzeOptminN5(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5 search: 2.4M runs")
	}
	rep, err := analysisEngine(2).Analyze(context.Background(), "search:optmin:n=5,t=2,k=2,width=1")
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Search; s.Beaten || s.Runs != 2391363 || s.Views != 35 || s.Candidates != 35 {
		t.Fatalf("n=5 Optmin[2] search: %s", rep)
	}
}

// TestAnalysisCount pins the admission count of analysis references: a
// search reports its compile space's exact Count at the given degree
// (the degree sets k, and with it the value range, when the reference
// leaves them out) — the runs its compile stage holds — and a
// certificate family reports none.
func TestAnalysisCount(t *testing.T) {
	reg := setconsensus.DefaultAnalyses()
	cases := []struct {
		ref    string
		degree int
		n      int
		ok     bool
	}{
		{"search:upmin:n=5,t=3,r=2,k=2,width=1", 1, 5015763, true},
		{"search:optmin:n=5,t=2,k=2,width=1", 1, 2391363, true},
		{"search:optmin:n=5,t=2,width=1", 2, 2391363, true},
		{"search:optmin:n=3,t=2,r=2,width=2", 1, 776, true},
		{"search:optmin:n=2,t=1,r=1,v=0..1048575", 1, 5 << 40, true}, // 2^20 values
		{"forced:k=2", 2, 0, false},
		{"lemma2", 2, 0, false},
	}
	for _, c := range cases {
		n, ok, err := reg.Count(c.ref, c.degree)
		if err != nil || n != c.n || ok != c.ok {
			t.Errorf("%s at degree %d: (%v, %v, %v), want (%v, %v, nil)", c.ref, c.degree, n, ok, err, c.n, c.ok)
		}
	}
	for _, ref := range []string{"nonsense", "search:optmin:bogus=1", "search:optmin:n=1", "search:optmin:n=30,t=29",
		"search:optmin:n=2,t=1,r=1,v=0..1048576", // more than 2^20 values
	} {
		if _, _, err := reg.Count(ref, 1); err == nil {
			t.Errorf("%s: no error", ref)
		}
	}
}

func TestAnalyzeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ref := range []string{"search:optmin", "search:upmin", "lemma2", "forced"} {
		if _, err := analysisEngine(2).Analyze(ctx, ref); err != context.Canceled {
			t.Errorf("%s: cancelled analysis returned %v, want context.Canceled", ref, err)
		}
	}
}

func TestAnalyzeCertificateFamilies(t *testing.T) {
	ctx := context.Background()
	forced, err := analysisEngine(4, setconsensus.WithDegree(3)).Analyze(ctx, "forced")
	if err != nil {
		t.Fatal(err)
	}
	if forced.Nodes == 0 || forced.Certified != forced.Nodes || forced.Orders == 0 {
		t.Fatalf("degenerate forced report: %+v", forced)
	}
	if !forced.OK() {
		t.Fatalf("forced analysis not OK: %+v", forced)
	}
	lemma2, err := analysisEngine(4, setconsensus.WithDegree(3)).Analyze(ctx, "lemma2")
	if err != nil {
		t.Fatal(err)
	}
	if lemma2.Nodes == 0 || lemma2.Certified != lemma2.Nodes {
		t.Fatalf("degenerate lemma2 report: %+v", lemma2)
	}
}

func TestAnalyzeStreamProgressStages(t *testing.T) {
	var stages []string
	lastDone := -1
	_, err := analysisEngine(1).AnalyzeStream(context.Background(), "search:optmin:n=3,t=2,r=2,width=2",
		func(p setconsensus.AnalysisProgress) {
			if len(stages) == 0 || stages[len(stages)-1] != p.Stage {
				stages = append(stages, p.Stage)
				lastDone = -1
			}
			if p.Stage == "compile" && p.Total != 776 {
				t.Errorf("compile snapshot %+v, want the space's 776 runs as its total", p)
			}
			if p.Done < lastDone {
				t.Fatalf("stage %s: done went backwards (%d after %d)", p.Stage, p.Done, lastDone)
			}
			lastDone = p.Done
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"compile", "width-1", "width-2"}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
}

func TestAnalysisRegistryParse(t *testing.T) {
	cases := []struct {
		ref     string
		wantErr string
	}{
		{"search:optmin", ""},
		{"search:optmin:width=1,n=3", ""},
		{"search", ""}, // alias
		{"SEARCH:UPMIN", ""},
		{"forced:k=2,m=1", ""},
		{"nonsense", "unknown name"},
		{"search:optmin:bogus=1", "unknown parameter"},
		{"search:optmin:width", "malformed parameter"},
		{"forced:k=2,k=3", "duplicate parameter"},
	}
	for _, c := range cases {
		_, err := setconsensus.ParseAnalysis(c.ref)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%q: unexpected error %v", c.ref, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%q: error %v, want containing %q", c.ref, err, c.wantErr)
		}
	}
}

func TestAnalyzeRejectsNonOracleBackend(t *testing.T) {
	eng := setconsensus.New(setconsensus.WithBackend(setconsensus.Wire))
	_, err := eng.Analyze(context.Background(), "search:optmin")
	if err == nil || !strings.Contains(err.Error(), "Oracle") {
		t.Fatalf("wire-backend search analysis returned %v, want Oracle-backend error", err)
	}
}

// TestAnalyzeSpernerCrossCheck is the randomized topology cross-check:
// for small k, every random Sperner coloring of Div σ has an odd (hence
// nonzero) number of fully colored simplices — the combinatorial
// obstruction behind Theorem 1 — and, consistently, the deviation search
// over a small (n,k) space finds the base protocol unbeaten. A beating
// deviation would contradict the nonzero Sperner count: it would decide
// k+1 distinct values among correct processes on some run.
func TestAnalyzeSpernerCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, k := range []int{1, 2} {
		div, err := setconsensus.DivK(k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			cnt, err := div.SpernerCount(div.RandomColoring(rng))
			if err != nil {
				t.Fatal(err)
			}
			if cnt%2 == 0 || cnt < 1 {
				t.Fatalf("k=%d trial %d: Sperner count %d — want odd ≥ 1", k, trial, cnt)
			}
		}
		// Matching search side: n = k+2 processes, t = k crashes.
		ref := map[int]string{
			1: "search:optmin:n=3,t=1,r=1,k=1,width=2",
			2: "search:optmin:n=4,t=2,r=1,k=2,width=1",
		}[k]
		rep, err := analysisEngine(2).Analyze(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Search.Beaten {
			t.Fatalf("k=%d: search found a beat (%s) while the Sperner count is nonzero — the two disagree",
				k, rep.Search.Witness)
		}
		var _ *topology.Subdivision = div
	}
}
