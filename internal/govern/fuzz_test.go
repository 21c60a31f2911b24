package govern

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseBytes feeds arbitrary quantities to the -memlimit flags'
// parser, seeded from TestParseBytes's table. No input may panic it, and
// a quantity it accepts is ≥ 0: for plain digits, exactly what
// strconv.ParseInt reads, and for digits with a K, M, G or T suffix
// (optionally followed by B or iB), those digits shifted left by 10, 20,
// 30 or 40.
func FuzzParseBytes(f *testing.F) {
	for _, c := range parseBytesCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		if err != nil {
			return
		}
		if got < 0 {
			t.Fatalf("ParseBytes(%q) = %d, want ≥ 0", s, got)
		}
		digits, shift, ok := splitQuantity(strings.TrimSpace(s))
		if !ok {
			return
		}
		n, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			t.Fatalf("ParseBytes(%q) = %d, but its digits do not parse: %v", s, got, err)
		}
		if want := n << shift; got != want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", s, got, want)
		}
	})
}

// splitQuantity splits a quantity of the two forms FuzzParseBytes checks
// into its decimal digits and the shift its suffix names: plain digits
// (shift 0), or digits and K, M, G or T, optionally followed by B or iB,
// in any case. ok is false for every other form.
func splitQuantity(s string) (digits string, shift uint, ok bool) {
	i := 0
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return "", 0, false
	}
	digits, suffix := s[:i], strings.ToUpper(s[i:])
	if suffix == "" {
		return digits, 0, true
	}
	shift = map[byte]uint{'K': 10, 'M': 20, 'G': 30, 'T': 40}[suffix[0]]
	switch suffix[1:] {
	case "", "B", "IB":
		return digits, shift, shift > 0
	}
	return "", 0, false
}
