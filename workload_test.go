package setconsensus_test

import (
	"strings"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/model"
)

// TestDefaultWorkloadsCoverModelFamilies pins the contract that every
// named adversary family of internal/model is selectable by name in the
// default workload registry.
func TestDefaultWorkloadsCoverModelFamilies(t *testing.T) {
	reg := setconsensus.DefaultWorkloads()
	for _, fam := range model.Families() {
		spec, err := reg.Lookup(fam.Name)
		if err != nil {
			t.Errorf("family %q not registered: %v", fam.Name, err)
			continue
		}
		if spec.Summary != fam.Summary {
			t.Errorf("family %q: registry summary %q, model summary %q", fam.Name, spec.Summary, fam.Summary)
		}
	}
	if _, err := reg.Lookup("space"); err != nil {
		t.Errorf("space workload missing: %v", err)
	}
}

// TestParseWorkloadDefaults checks that every registered workload parses
// with no arguments and yields a non-empty, restartable stream of valid
// adversaries.
func TestParseWorkloadDefaults(t *testing.T) {
	for _, name := range setconsensus.Workloads() {
		t.Run(name, func(t *testing.T) {
			src, err := setconsensus.ParseWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if src.Label() == "" {
				t.Error("empty label")
			}
			n := 0
			for adv := range src.Seq() {
				if err := adv.Validate(-1, -1); err != nil {
					t.Fatalf("invalid adversary: %v", err)
				}
				n++
				if n >= 50 {
					break
				}
			}
			if n == 0 {
				t.Fatal("default workload is empty")
			}
			if c, known := src.Count(); known && c != n && n < 50 {
				t.Errorf("Count = %d but stream yielded %d", c, n)
			}
		})
	}
}

func TestParseWorkloadParameters(t *testing.T) {
	// A range parameter sweeps the family: one adversary per step.
	src, err := setconsensus.ParseWorkload("collapse:k=3,r=2..5")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := src.Count(); !ok || n != 4 {
		t.Fatalf("collapse r=2..5 Count = %d,%v", n, ok)
	}
	i := 0
	for adv := range src.Seq() {
		wantN := 3*(2+i+1) + 5 // t = k(r+1), n = t + extra (extra = k+2)
		if adv.N() != wantN {
			t.Errorf("step %d: n = %d, want %d", i, adv.N(), wantN)
		}
		i++
	}

	// Scalar parameters pin a single adversary.
	src, err = setconsensus.ParseWorkload("hiddenpath:depth=3,n=6")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := src.Count(); !ok || n != 1 {
		t.Fatalf("pinned hiddenpath Count = %d,%v", n, ok)
	}

	// The exhaustive space syntax from the issue.
	src, err = setconsensus.ParseWorkload("space:n=4,t=2,r=2,v=0..1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(src.Label(), "space:") {
		t.Errorf("label = %q", src.Label())
	}

	// Case-insensitive names, whitespace tolerated.
	if _, err := setconsensus.ParseWorkload(" SilentRounds:k=1,r=2 "); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}

	// random honors count and seed.
	src, err = setconsensus.ParseWorkload("random:count=7,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := src.Count(); !ok || n != 7 {
		t.Fatalf("random Count = %d,%v", n, ok)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	bad := []string{
		"nonsense",                        // unknown workload
		"collapse:r=1",                    // family constraint violated (R ≥ 2)
		"collapse:k=two",                  // junk integer
		"collapse:r=5..2",                 // empty range
		"collapse:bogus=1",                // unknown parameter
		"collapse:k=2,k=3",                // duplicate parameter
		"collapse:k",                      // malformed pair
		"space:n=1",                       // invalid space
		"random:t=9,n=3",                  // t > n-1
		"hiddenpath:depth=5,n=4",          // n < depth+2
		"silentrounds:k=2,extra=1",        // extra < k+1
		"hiddenchains:c=0",                // c < 1
		"random:count=-1",                 // negative count
		"collapse:low=maybe",              // junk boolean
		"space:v=0..9223372036854775807",  // more values than an int counts
		"space:v=-9223372036854775808..0", // likewise
	}
	for _, ref := range bad {
		if _, err := setconsensus.ParseWorkload(ref); err == nil {
			t.Errorf("%q must fail to parse", ref)
		}
	}
}

func TestWorkloadRegistryRegistration(t *testing.T) {
	r := setconsensus.NewWorkloadRegistry()
	mk := func(args setconsensus.WorkloadArgs) (setconsensus.Source, error) {
		return setconsensus.SliceSource(setconsensus.NewBuilder(3, 0).MustBuild()), nil
	}
	if err := r.Register(setconsensus.WorkloadSpec{Name: "w1", Aliases: []string{"one"}, New: mk}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(setconsensus.WorkloadSpec{Name: "W1", New: mk}); err == nil {
		t.Error("duplicate name must fail")
	}
	if err := r.Register(setconsensus.WorkloadSpec{Name: "one", New: mk}); err == nil {
		t.Error("name colliding with an alias must fail")
	}
	if err := r.Register(setconsensus.WorkloadSpec{Name: "", New: mk}); err == nil {
		t.Error("empty name must fail")
	}
	if err := r.Register(setconsensus.WorkloadSpec{Name: "w2"}); err == nil {
		t.Error("nil constructor must fail")
	}
	if _, err := r.Parse("one"); err != nil {
		t.Errorf("alias parse failed: %v", err)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "w1" {
		t.Errorf("Names = %v", names)
	}
	if specs := r.Specs(); len(specs) != 1 || specs[0].Name != "w1" {
		t.Errorf("Specs wrong: %+v", specs)
	}
}
