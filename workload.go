package setconsensus

import (
	"fmt"
	"iter"
	"sort"
	"strconv"
	"strings"
	"sync"

	"setconsensus/internal/model"
)

// WorkloadSpec describes one named, parameterized adversary family: how
// to build a Source from string arguments and the metadata consumers
// need to list and document it. Workloads are registered in a
// WorkloadRegistry and selected by reference strings of the form
// "name" or "name:key=val,key=val", so CLIs and experiments pick
// workloads exactly the way they pick protocols.
//
// Scalar integer parameters accept ranges ("r=2..5" sweeps r over 2, 3,
// 4, 5, one adversary per step), which is how a single reference names a
// whole family curve.
type WorkloadSpec struct {
	// Name is the canonical lookup key, e.g. "collapse". Lookups are
	// case-insensitive.
	Name string
	// Aliases are additional lookup keys.
	Aliases []string
	// Summary is a one-line description for listings.
	Summary string
	// Params documents the accepted keys, e.g. "k=2 r=2..4 extra=k+2
	// low=false". Purely descriptive; parsing happens in New.
	Params string
	// New builds the Source for one parsed argument set.
	New func(args WorkloadArgs) (Source, error)
}

// WorkloadArgs is the parsed key=value argument list of a workload
// reference. The typed getters consume keys; Finish errors on leftovers
// so misspelled parameters never pass silently.
type WorkloadArgs struct {
	kind string // "workload" or "analysis", for error messages
	ref  string
	vals map[string]string
	used map[string]bool
}

func newWorkloadArgs(kind, ref string, vals map[string]string) WorkloadArgs {
	return WorkloadArgs{kind: kind, ref: ref, vals: vals, used: make(map[string]bool)}
}

// Int consumes an integer parameter, returning def when absent.
func (a WorkloadArgs) Int(key string, def int) (int, error) {
	a.used[key] = true
	s, ok := a.vals[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%s %q: parameter %s=%q is not an integer", a.kind, a.ref, key, s)
	}
	return v, nil
}

// Int64 consumes a 64-bit integer parameter (seeds), returning def when
// absent.
func (a WorkloadArgs) Int64(key string, def int64) (int64, error) {
	a.used[key] = true
	s, ok := a.vals[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: parameter %s=%q is not an integer", a.kind, a.ref, key, s)
	}
	return v, nil
}

// Bool consumes a boolean parameter, returning def when absent.
func (a WorkloadArgs) Bool(key string, def bool) (bool, error) {
	a.used[key] = true
	s, ok := a.vals[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("%s %q: parameter %s=%q is not a boolean", a.kind, a.ref, key, s)
	}
	return v, nil
}

// Range consumes an integer-or-range parameter ("3" or "2..5"),
// returning [defLo, defHi] when absent. Lo ≤ Hi is enforced.
func (a WorkloadArgs) Range(key string, defLo, defHi int) (lo, hi int, err error) {
	a.used[key] = true
	s, ok := a.vals[key]
	if !ok {
		return defLo, defHi, nil
	}
	parse := func(part string) (int, error) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return 0, fmt.Errorf("%s %q: parameter %s=%q is not an integer or lo..hi range", a.kind, a.ref, key, s)
		}
		return v, nil
	}
	if loS, hiS, isRange := strings.Cut(s, ".."); isRange {
		if lo, err = parse(loS); err != nil {
			return 0, 0, err
		}
		if hi, err = parse(hiS); err != nil {
			return 0, 0, err
		}
	} else {
		if lo, err = parse(s); err != nil {
			return 0, 0, err
		}
		hi = lo
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("%s %q: empty range %s=%q", a.kind, a.ref, key, s)
	}
	return lo, hi, nil
}

// Finish errors if any supplied parameter was never consumed.
func (a WorkloadArgs) Finish() error {
	var unknown []string
	for k := range a.vals {
		if !a.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%s %q: unknown parameter(s) %s", a.kind, a.ref, strings.Join(unknown, ", "))
	}
	return nil
}

// specRegistry is the shared name-resolution core behind the protocol,
// workload and analysis registries: case-insensitive canonical names plus
// aliases, registration order, and reference splitting. Registry names
// may themselves contain ':' (the analysis families "search:optmin",
// "search:upmin" do), so splitRef resolves the longest registered
// colon-prefix of a reference and treats the remainder as the argument
// list. All methods are safe for concurrent use.
type specRegistry[S any] struct {
	kind  string // "protocols" / "workloads" / "analyses", for error messages
	mu    sync.RWMutex
	specs map[string]S
	alias map[string]string
	order []string
}

func newSpecRegistry[S any](kind string) *specRegistry[S] {
	return &specRegistry[S]{
		kind:  kind,
		specs: make(map[string]S),
		alias: make(map[string]string),
	}
}

// register adds a spec under its canonical name and aliases. It fails on
// empty or duplicate names, including alias collisions.
func (r *specRegistry[S]) register(name string, aliases []string, spec S) error {
	if name == "" {
		return fmt.Errorf("%s: spec with empty name", r.kind)
	}
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[key]; dup {
		return fmt.Errorf("%s: %q already registered", r.kind, name)
	}
	if _, dup := r.alias[key]; dup {
		return fmt.Errorf("%s: name %q already registered as an alias", r.kind, name)
	}
	for _, a := range aliases {
		ak := strings.ToLower(a)
		if _, dup := r.specs[ak]; dup {
			return fmt.Errorf("%s: alias %q collides with a registered name", r.kind, a)
		}
		if _, dup := r.alias[ak]; dup {
			return fmt.Errorf("%s: alias %q already registered", r.kind, a)
		}
	}
	r.specs[key] = spec
	for _, a := range aliases {
		r.alias[strings.ToLower(a)] = key
	}
	r.order = append(r.order, key)
	return nil
}

// lookup resolves an exact name or alias, case-insensitively.
func (r *specRegistry[S]) lookup(name string) (S, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.specs[key]; ok {
		return s, nil
	}
	if canon, ok := r.alias[key]; ok {
		return r.specs[canon], nil
	}
	var zero S
	known := make([]string, 0, len(r.specs))
	for k := range r.specs {
		known = append(known, k)
	}
	sort.Strings(known)
	return zero, fmt.Errorf("%s: unknown name %q (known: %s)", r.kind, name, strings.Join(known, ", "))
}

// splitRef resolves a reference "name" or "name:key=val,..." against the
// registered names, matching the longest ':'-separated prefix that names
// a spec, and returns the spec plus the unparsed argument remainder.
func (r *specRegistry[S]) splitRef(ref string) (S, string, error) {
	trimmed := strings.TrimSpace(ref)
	segs := strings.Split(trimmed, ":")
	var firstErr error
	for i := len(segs); i >= 1; i-- {
		name := strings.Join(segs[:i], ":")
		s, err := r.lookup(name)
		if err == nil {
			return s, strings.Join(segs[i:], ":"), nil
		}
		if firstErr == nil {
			firstErr = err // the full-reference miss lists the known names
		}
	}
	var zero S
	return zero, "", firstErr
}

// names returns the canonical names in registration order.
func (r *specRegistry[S]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// all returns the specs in registration order.
func (r *specRegistry[S]) all() []S {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]S, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.specs[k])
	}
	return out
}

// parseArgPairs parses the "key=val,key=val" remainder of a reference
// into the WorkloadArgs value map, rejecting malformed and duplicate
// keys. kind labels the reference in errors ("workload" or "analysis").
func parseArgPairs(kind, ref, argStr string) (map[string]string, error) {
	vals := make(map[string]string)
	if argStr == "" {
		return vals, nil
	}
	for _, pair := range strings.Split(argStr, ",") {
		k, v, ok := strings.Cut(pair, "=")
		k = strings.ToLower(strings.TrimSpace(k))
		if !ok || k == "" {
			return nil, fmt.Errorf("%s %q: malformed parameter %q (want key=value)", kind, ref, pair)
		}
		if _, dup := vals[k]; dup {
			return nil, fmt.Errorf("%s %q: duplicate parameter %q", kind, ref, k)
		}
		vals[k] = strings.TrimSpace(v)
	}
	return vals, nil
}

// WorkloadRegistry maps workload names to specs. The zero value is not
// usable; call NewWorkloadRegistry. All methods are safe for concurrent
// use.
type WorkloadRegistry struct {
	reg *specRegistry[*WorkloadSpec]
}

// NewWorkloadRegistry returns an empty workload registry.
func NewWorkloadRegistry() *WorkloadRegistry {
	return &WorkloadRegistry{reg: newSpecRegistry[*WorkloadSpec]("workloads")}
}

// Register adds a spec. It fails on empty or duplicate names (including
// alias collisions) and on specs missing a constructor.
func (r *WorkloadRegistry) Register(spec WorkloadSpec) error {
	if spec.New == nil {
		return fmt.Errorf("workloads: %s: nil constructor", spec.Name)
	}
	s := spec
	return r.reg.register(spec.Name, spec.Aliases, &s)
}

// MustRegister is Register for static registrations.
func (r *WorkloadRegistry) MustRegister(spec WorkloadSpec) {
	if err := r.Register(spec); err != nil {
		panic(err)
	}
}

// Lookup resolves a workload name or alias, case-insensitively.
func (r *WorkloadRegistry) Lookup(name string) (*WorkloadSpec, error) {
	return r.reg.lookup(name)
}

// Names returns the canonical workload names in registration order.
func (r *WorkloadRegistry) Names() []string { return r.reg.names() }

// Specs returns all registered specs in registration order.
func (r *WorkloadRegistry) Specs() []*WorkloadSpec { return r.reg.all() }

// Parse resolves a workload reference — "name" or
// "name:key=val,key=val" — into a Source.
func (r *WorkloadRegistry) Parse(ref string) (Source, error) {
	spec, argStr, err := r.reg.splitRef(ref)
	if err != nil {
		return nil, err
	}
	vals, err := parseArgPairs("workload", ref, argStr)
	if err != nil {
		return nil, err
	}
	return spec.New(newWorkloadArgs("workload", ref, vals))
}

// stepSource is a named family swept over one scalar parameter: one
// adversary per step, built lazily so only one lives at a time. Every
// step is validated eagerly — the same constructions the stream will
// make — so a bad parameterization anywhere in the range surfaces at
// Parse time and the stream can never silently come up short.
func stepSource(label string, lo, hi int, build func(step int) (*Adversary, error)) (Source, error) {
	for step := lo; step <= hi; step++ {
		if _, err := build(step); err != nil {
			return nil, err
		}
	}
	seq := func(yield func(*Adversary) bool) {
		for step := lo; step <= hi; step++ {
			adv, err := build(step)
			if err != nil {
				return // unreachable: every step validated at construction
			}
			if !yield(adv) {
				return
			}
		}
	}
	return FuncSource(label, hi-lo+1, iter.Seq[*Adversary](seq)), nil
}

// defaultWorkloads wires every named adversary family of internal/model
// (see model.Families) plus the exhaustive "space" enumeration into a
// registry. Summaries come from the model package's registration
// metadata, keeping it the single source of truth.
var defaultWorkloads = func() *WorkloadRegistry {
	summaries := make(map[string]string)
	for _, f := range model.Families() {
		summaries[f.Name] = f.Summary
	}
	r := NewWorkloadRegistry()
	r.MustRegister(WorkloadSpec{
		Name:    "hiddenpath",
		Summary: summaries["hiddenpath"],
		Params:  "depth=1..4 n=maxdepth+2",
		New: func(args WorkloadArgs) (Source, error) {
			lo, hi, err := args.Range("depth", 1, 4)
			if err != nil {
				return nil, err
			}
			n, err := args.Int("n", hi+2)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("hiddenpath:n=%d,depth=%d..%d", n, lo, hi)
			return stepSource(label, lo, hi, func(depth int) (*Adversary, error) {
				return model.HiddenPath(n, depth)
			})
		},
	})
	r.MustRegister(WorkloadSpec{
		Name:    "hiddenchains",
		Summary: summaries["hiddenchains"],
		Params:  "c=1..3 m=2 extra=2 (n=1+c*(m+1)+extra, chain values high)",
		New: func(args WorkloadArgs) (Source, error) {
			lo, hi, err := args.Range("c", 1, 3)
			if err != nil {
				return nil, err
			}
			m, err := args.Int("m", 2)
			if err != nil {
				return nil, err
			}
			extra, err := args.Int("extra", 2)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("hiddenchains:c=%d..%d,m=%d,extra=%d", lo, hi, m, extra)
			return stepSource(label, lo, hi, func(c int) (*Adversary, error) {
				values := make([]int, c)
				for b := range values {
					values[b] = c // all chains start high, as in Fig. 2
				}
				return model.HiddenChains(1+c*(m+1)+extra, c, m, values, c)
			})
		},
	})
	r.MustRegister(WorkloadSpec{
		Name:    "collapse",
		Summary: summaries["collapse"],
		Params:  "k=2 r=2..4 extra=k+2 low=false (t=k*(r+1))",
		New: func(args WorkloadArgs) (Source, error) {
			k, err := args.Int("k", 2)
			if err != nil {
				return nil, err
			}
			lo, hi, err := args.Range("r", 2, 4)
			if err != nil {
				return nil, err
			}
			extra, err := args.Int("extra", k+2)
			if err != nil {
				return nil, err
			}
			low, err := args.Bool("low", false)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("collapse:k=%d,r=%d..%d,extra=%d,low=%v", k, lo, hi, extra, low)
			return stepSource(label, lo, hi, func(r int) (*Adversary, error) {
				return model.Collapse(model.CollapseParams{K: k, R: r, ExtraCorrect: extra, LowVariant: low})
			})
		},
	})
	r.MustRegister(WorkloadSpec{
		Name:    "silentrounds",
		Summary: summaries["silentrounds"],
		Params:  "k=2 r=1..4 extra=k+1",
		New: func(args WorkloadArgs) (Source, error) {
			k, err := args.Int("k", 2)
			if err != nil {
				return nil, err
			}
			lo, hi, err := args.Range("r", 1, 4)
			if err != nil {
				return nil, err
			}
			extra, err := args.Int("extra", k+1)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("silentrounds:k=%d,r=%d..%d,extra=%d", k, lo, hi, extra)
			return stepSource(label, lo, hi, func(r int) (*Adversary, error) {
				return model.SilentRounds(k, r, extra)
			})
		},
	})
	r.MustRegister(WorkloadSpec{
		Name:    "random",
		Summary: summaries["random"],
		Params:  "n=6 t=3 maxv=2 maxr=3 count=100 seed=1",
		New: func(args WorkloadArgs) (Source, error) {
			n, err := args.Int("n", 6)
			if err != nil {
				return nil, err
			}
			t, err := args.Int("t", 3)
			if err != nil {
				return nil, err
			}
			maxv, err := args.Int("maxv", 2)
			if err != nil {
				return nil, err
			}
			maxr, err := args.Int("maxr", 3)
			if err != nil {
				return nil, err
			}
			count, err := args.Int("count", 100)
			if err != nil {
				return nil, err
			}
			seed, err := args.Int64("seed", 1)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			src, err := RandomSource(seed, count, RandomParams{N: n, T: t, MaxValue: maxv, MaxRound: maxr})
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", args.ref, err)
			}
			return src, nil
		},
	})
	r.MustRegister(WorkloadSpec{
		Name:    "space",
		Summary: "exhaustive canonical adversary enumeration — every run of the model",
		Params:  "n=3 t=2 r=2 v=0..1 (values range; exact count up front)",
		New: func(args WorkloadArgs) (Source, error) {
			n, err := args.Int("n", 3)
			if err != nil {
				return nil, err
			}
			t, err := args.Int("t", 2)
			if err != nil {
				return nil, err
			}
			maxRound, err := args.Int("r", 2)
			if err != nil {
				return nil, err
			}
			vLo, vHi, err := args.Range("v", 0, 1)
			if err != nil {
				return nil, err
			}
			if err := args.Finish(); err != nil {
				return nil, err
			}
			values, err := valueRange(vLo, vHi)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", args.ref, err)
			}
			return SpaceSource(Space{N: n, T: t, MaxRound: maxRound, Values: values})
		},
	})
	return r
}()

// valueRange returns the values lo, lo+1, ..., hi of a space (lo ≤ hi),
// or an error when the range holds more than model.ValueLimit values.
// With n ≥ 2 processes, a space of more values holds over 2^40
// adversaries per failure pattern, so the range is rejected before its
// values are materialized: the daemon sizes a job's space at admission,
// on a reference read from the request. Values outside
// 0..model.ValueLimit−1 are the space's to reject (Space.Validate).
func valueRange(lo, hi int) ([]int, error) {
	if hi-lo < 0 || hi-lo >= model.ValueLimit { // hi−lo overflows, or hi−lo+1 > ValueLimit
		return nil, fmt.Errorf("value range %d..%d holds more than %d values", lo, hi, model.ValueLimit)
	}
	values := make([]int, hi-lo+1)
	for i := range values {
		values[i] = lo + i
	}
	return values, nil
}

// DefaultWorkloads returns the registry holding every built-in workload:
// the named adversary families of the paper ("hiddenpath",
// "hiddenchains", "collapse", "silentrounds", "random") and the
// exhaustive "space" enumeration. Callers may Register additional
// workloads on it.
func DefaultWorkloads() *WorkloadRegistry { return defaultWorkloads }

// ParseWorkload resolves a workload reference in the default registry,
// e.g. "collapse:k=3,r=2..5" or "space:n=4,t=2,r=2,v=0..1".
func ParseWorkload(ref string) (Source, error) { return defaultWorkloads.Parse(ref) }

// Workloads returns the canonical names in the default registry.
func Workloads() []string { return defaultWorkloads.Names() }
