package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a -out result file, keeping each workload's runs in
// file order: the i-th runs of two files form the i-th pair.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	return out, sc.Err()
}

// quartiles is Python's statistics.quantiles(xs, n=4), the default
// exclusive method, so spreads read the same as that function's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// judgement is one metric's comparison on one workload.
type judgement struct {
	medA, medB, iqrA, iqrB float64
	wins, pairs            int
	verdict                string
}

// judge compares a baseline's runs a with a change's runs b, following
// the choosing-metrics rules: a gain is claimed only when the change wins
// nine tenths of the pairs and the medians differ by more than the
// baseline's IQR; a median worse by more than the bound is a regression
// when the spreads are within the bound or every change run is worse than
// every baseline run; a spread wider than the bound otherwise leaves the
// metric unresolved unless every change run beats every baseline run.
func judge(a, b []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	q1, medA, q3 := quartiles(a)
	j.medA, j.iqrA = medA, q3-q1
	q1, medB, q3 := quartiles(b)
	j.medB, j.iqrB = medB, q3-q1
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	j.pairs = min(len(a), len(b))
	for i := 0; i < j.pairs; i++ {
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	worsening := (j.medB - j.medA) / math.Abs(j.medA)
	if !lowerBetter {
		worsening = -worsening
	}
	spread := math.Max(j.iqrA/math.Abs(j.medA), j.iqrB/math.Abs(j.medB))
	switch {
	case better(j.medB, j.medA) && 10*j.wins >= 9*j.pairs && math.Abs(j.medB-j.medA) > j.iqrA:
		j.verdict = "better"
	case worsening > bound && (spread <= bound || allWorse):
		j.verdict = "worse"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func failedFrac(rs []record) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareMain compares two result files — A, the baseline, and B, the
// change — workload by workload, and exits 1 when any end-to-end metric
// got worse by more than its bound or B failed more ops than A.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl  (run from the repository root)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	code := 0
	for _, key := range keys {
		ra, rb := a[key], b[key]
		fmt.Printf("%s: %d runs in A, %d in B\n", key, len(ra), len(rb))
		fmt.Printf("  %-28s %-6s %14s %11s %14s %11s %8s %6s  %s\n",
			"metric", "unit", "A median", "A IQR", "B median", "B IQR", "change", "wins", "verdict")
		row := func(name, unit string, lowerBetter bool, bound float64, judged bool) {
			var xa, xb []float64
			for _, r := range ra {
				if m, ok := r.Metrics[name]; ok {
					xa = append(xa, m.Value)
				}
			}
			for _, r := range rb {
				if m, ok := r.Metrics[name]; ok {
					xb = append(xb, m.Value)
				}
			}
			if len(xa) == 0 || len(xb) == 0 {
				return
			}
			j := judge(xa, xb, lowerBetter, bound)
			if !judged {
				j.verdict = "-"
			}
			if j.verdict == "worse" {
				code = 1
			}
			change := 100 * (j.medB - j.medA) / math.Abs(j.medA)
			fmt.Printf("  %-28s %-6s %14.6g %11.4g %14.6g %11.4g %7.2f%% %3d/%-2d  %s\n",
				name, unit, j.medA, j.iqrA, j.medB, j.iqrB, change, j.wins, j.pairs, j.verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Unit, m.Better == "lower", m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			row(m.Name, m.Unit, m.Better == "lower", 0, false)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		v := "unchanged"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Printf("  %-28s %-6s %14.6g %11s %14.6g %11s %8s %6s  %s\n", "failed_ops", "ratio", fa, "", fb, "", "", "", v)
	}
	return code
}
