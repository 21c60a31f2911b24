package model

import (
	"math/rand"
	"testing"

	"setconsensus/internal/bitset"
)

// TestPatternFingerprintCanonicalEquivalence pins the property the
// binary-keyed enumeration rests on: a raw pattern and its Canonical()
// form fingerprint identically, and observably different patterns do
// not. The randomized sweep compares fingerprint equality against
// canonical-string equality — the dedup scheme it replaced — over many
// pattern pairs.
func TestPatternFingerprintCanonicalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomPat := func() *FailurePattern {
		n := 3 + rng.Intn(3)
		pat := NewFailurePattern(n)
		for _, p := range rng.Perm(n)[:rng.Intn(3)] {
			del := bitset.New(n)
			for q := 0; q < n; q++ {
				if rng.Intn(2) == 0 {
					del.Add(q)
				}
			}
			pat.SetCrash(Crash{Proc: p, Round: 1 + rng.Intn(3), Delivered: del})
		}
		return pat
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomPat(), randomPat()
		if got, want := a.Fingerprint() == b.Fingerprint(), a.Canonical().String() == b.Canonical().String(); got != want {
			t.Fatalf("fingerprint equality %v but canonical-string equality %v for\n%s\n%s", got, want, a, b)
		}
		if a.Fingerprint() != a.Canonical().Fingerprint() {
			t.Fatalf("pattern and its canonical form fingerprint differently: %s", a)
		}
	}
}

// TestAppendFingerprintReusesBuffer asserts the append form builds into
// the provided buffer without allocating when capacity suffices.
func TestAppendFingerprintReusesBuffer(t *testing.T) {
	pat := NewFailurePattern(4)
	pat.SetCrash(Crash{Proc: 1, Round: 2, Delivered: bitset.New(4).Add(0).Add(2)})
	buf := make([]byte, 0, 128)
	avg := testing.AllocsPerRun(50, func() {
		buf = pat.AppendFingerprint(buf[:0])
	})
	if avg != 0 {
		t.Fatalf("AppendFingerprint allocated %.1f objects per call with a warm buffer", avg)
	}
}
