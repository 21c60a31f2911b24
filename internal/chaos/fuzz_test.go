package chaos

import "testing"

// FuzzParseSpec feeds arbitrary specs to the -chaos flag's parser, seeded
// from TestParseSpec's table. No spec may panic it, and a spec it accepts
// configures known points only, every probability in [0,1] (NaN is not),
// every budget ≥ 0, and a delay ≥ 0.
func FuzzParseSpec(f *testing.F) {
	f.Add(goodSpec)
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for p, pr := range s.cfg.Prob {
			if !knownPoint(p) || !(pr >= 0 && pr <= 1) {
				t.Fatalf("%q: accepted point %q with probability %v", spec, p, pr)
			}
		}
		for p, b := range s.cfg.Budget {
			if !knownPoint(p) || b < 0 {
				t.Fatalf("%q: accepted point %q with budget %d", spec, p, b)
			}
		}
		if s.cfg.MaxDelay < 0 {
			t.Fatalf("%q: accepted delay %v", spec, s.cfg.MaxDelay)
		}
	})
}
