package setconsensus_test

import (
	"strings"
	"testing"

	setconsensus "setconsensus"
)

// fuzzEnumerated bounds the streams FuzzParseWorkload enumerates.
const fuzzEnumerated = 20000

// fuzzTooLarge reports whether ref sets a parameter other than count,
// seed or a space's rounds above 16. The families build adversaries of
// up to n·k·r processes, and validate every step of a range, at parse
// time, so a reference with large parameters can ask for gigabytes
// before a single check fails; the fuzzer keeps to references whose
// adversaries stay small. Counts and a space's rounds stay unbounded: a
// stream is only enumerated when its Count is at most fuzzEnumerated.
func fuzzTooLarge(ref string) bool {
	name, args, _ := strings.Cut(ref, ":")
	space := strings.EqualFold(strings.TrimSpace(name), "space")
	for _, pair := range strings.Split(args, ",") {
		key, val, _ := strings.Cut(pair, "=")
		if key = strings.ToLower(strings.TrimSpace(key)); key == "count" || key == "seed" || space && key == "r" {
			continue
		}
		n := 0
		for i := 0; i <= len(val); i++ {
			if i < len(val) && '0' <= val[i] && val[i] <= '9' {
				if n = 10*n + int(val[i]-'0'); n > 16 {
					return true
				}
				continue
			}
			n = 0
		}
	}
	return false
}

// FuzzParseWorkload feeds arbitrary references to the workload parser,
// the one that reads the daemon's job requests. No reference may panic.
// An accepted reference whose Count is at most 20,000 must yield exactly
// Count adversaries, and a RangeSource window over it, at a fuzzed
// offset and limit, exactly its own Count: the same adversaries as that
// slice of the whole stream. In a larger space, one a window enters
// without enumerating the prefix, a short window at the fuzzed offset
// must yield exactly its Count.
func FuzzParseWorkload(f *testing.F) {
	for _, ref := range append(setconsensus.Workloads(),
		// TestParseWorkloadParameters and TestParseWorkloadErrors.
		"collapse:k=3,r=2..5", "hiddenpath:depth=3,n=6", "space:n=4,t=2,r=2,v=0..1",
		" SilentRounds:k=1,r=2 ", "random:count=7,seed=42",
		"nonsense", "collapse:r=1", "collapse:k=two", "collapse:r=5..2", "collapse:bogus=1",
		"collapse:k=2,k=3", "collapse:k", "space:n=1", "random:t=9,n=3", "hiddenpath:depth=5,n=4",
		"silentrounds:k=2,extra=1", "hiddenchains:c=0", "random:count=-1", "collapse:low=maybe",
		// The benchmark's workloads.
		"space:n=5,t=1,r=2,v=0..2", "space:n=3,t=2,r=2,v=0..2", "space:n=3,t=2,r=2,v=0..1",
		"random:n=6,t=3,maxv=2,maxr=3,count=20000,seed=1",
		// Large spaces, entered deep.
		"space:n=2,t=1,r=1000000000000,v=0", "space:n=14,t=13,r=1,v=0", "space:n=6,t=3,r=2,v=0..2",
	) {
		f.Add(ref, 0, 1<<20)
		f.Add(ref, 7, 5)
	}
	f.Fuzz(func(t *testing.T, ref string, off, lim int) {
		if fuzzTooLarge(ref) {
			return
		}
		src, err := setconsensus.ParseWorkload(ref)
		if err != nil {
			return
		}
		n, known := src.Count()
		if _, seeks := src.(setconsensus.RangeSeq); known && seeks && n > fuzzEnumerated {
			// A short window anywhere in a large space yields exactly its
			// Count.
			lo := int(uint(off) % uint(n))
			win := setconsensus.RangeSource(src, lo, min(max(lim, 0), 3))
			wn, _ := win.Count()
			got := 0
			for range win.Seq() {
				got++
			}
			if wn != min(max(lim, 0), 3, n-lo) || got != wn {
				t.Fatalf("%q@%d+%d: window Count %d, yields %d", ref, lo, lim, wn, got)
			}
		}
		if !known || n > fuzzEnumerated {
			return
		}
		var all []string
		for a := range src.Seq() {
			if all = append(all, a.Fingerprint()); len(all) > n {
				break
			}
		}
		if len(all) != n {
			t.Fatalf("%q: Count %d, Seq yields %d", ref, n, len(all))
		}
		win := setconsensus.RangeSource(src, off, lim)
		wn, known := win.Count()
		if !known {
			t.Fatalf("%q@%d+%d: window of a counted stream reports no count", ref, off, lim)
		}
		lo := min(max(off, 0), n)
		want := all[lo : lo+min(max(lim, 0), n-lo)]
		var got []string
		for a := range win.Seq() {
			if got = append(got, a.Fingerprint()); len(got) > len(want) {
				break
			}
		}
		if len(got) != wn || wn != len(want) {
			t.Fatalf("%q@%d+%d: window Count %d, yields %d, want the %d of [%d,%d)", ref, off, lim, wn, len(got), len(want), lo, lo+len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q@%d+%d: window adversary %d is %x, the stream's %x", ref, off, lim, i, got[i], want[i])
			}
		}
	})
}
