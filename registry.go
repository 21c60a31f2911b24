package setconsensus

import (
	"fmt"

	"setconsensus/internal/baseline"
	"setconsensus/internal/core"
	"setconsensus/internal/wire"
)

// ProtocolSpec describes one named protocol: how to construct it and the
// metadata consumers need to run and judge it (which task it solves, its
// worst-case decision time, and whether the compact wire encoding can
// carry it). Specs are registered in a Registry and resolved by name, so
// no consumer ever switches on protocol names.
type ProtocolSpec struct {
	// Name is the canonical lookup key, e.g. "optmin". Lookups are
	// case-insensitive.
	Name string
	// Aliases are additional lookup keys (e.g. "u-pmin" for "upmin").
	Aliases []string
	// Summary is a one-line description for listings.
	Summary string
	// Uniform reports whether the protocol solves the uniform task —
	// i.e. whether faulty processes' decisions count toward k-Agreement.
	Uniform bool
	// Unbeatable marks the paper's own protocols (§4, §5), as opposed to
	// the literature baselines they dominate.
	Unbeatable bool
	// WorstCaseTime bounds the time by which every correct process has
	// decided under params p; the oracle backend uses it as the horizon.
	WorstCaseTime func(p Params) int
	// New constructs the full-information protocol for the oracle
	// backend.
	New func(p Params) (Protocol, error)
	// WireRule is the decision rule of the Appendix E compact protocol
	// for the wire and goroutine backends; zero means the protocol is
	// full-information only and cannot run on those backends.
	WireRule wire.Rule
}

// WireCapable reports whether the spec can run on the wire and goroutine
// backends.
func (s *ProtocolSpec) WireCapable() bool { return s.WireRule != 0 }

// Task returns the task specification the protocol claims to solve at
// degree k.
func (s *ProtocolSpec) Task(k int) Task { return Task{K: k, Uniform: s.Uniform} }

// Registry maps protocol names to specs. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	reg *specRegistry[*ProtocolSpec]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{reg: newSpecRegistry[*ProtocolSpec]("protocols")}
}

// Register adds a spec. It fails on empty or duplicate names (including
// alias collisions) and on specs missing a constructor.
func (r *Registry) Register(spec ProtocolSpec) error {
	if spec.New == nil {
		return fmt.Errorf("protocols: %s: nil constructor", spec.Name)
	}
	if spec.WorstCaseTime == nil {
		return fmt.Errorf("protocols: %s: nil WorstCaseTime", spec.Name)
	}
	s := spec
	return r.reg.register(spec.Name, spec.Aliases, &s)
}

// MustRegister is Register for static registrations.
func (r *Registry) MustRegister(spec ProtocolSpec) {
	if err := r.Register(spec); err != nil {
		panic(err)
	}
}

// Lookup resolves a protocol name or alias, case-insensitively.
func (r *Registry) Lookup(name string) (*ProtocolSpec, error) { return r.reg.lookup(name) }

// New resolves name and constructs the protocol for params p.
func (r *Registry) New(name string, p Params) (Protocol, error) {
	spec, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.New(p)
}

// Names returns the canonical protocol names in registration order.
func (r *Registry) Names() []string { return r.reg.names() }

// Specs returns all registered specs in registration order.
func (r *Registry) Specs() []*ProtocolSpec { return r.reg.all() }

// defaultRegistry holds every protocol in the repository: the paper's
// unbeatable protocols, their k=1 specializations, and the five
// literature baselines (§5's "all known protocols").
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	horizon := func(p Params) int { return p.T/p.K + 1 }
	r.MustRegister(ProtocolSpec{
		Name:          "optmin",
		Aliases:       []string{"pmin"},
		Summary:       "Optmin[k] — unbeatable nonuniform k-set consensus (§4, Thm. 1)",
		Unbeatable:    true,
		WorstCaseTime: horizon,
		New:           func(p Params) (Protocol, error) { return core.NewOptmin(p) },
		WireRule:      wire.RuleOptmin,
	})
	r.MustRegister(ProtocolSpec{
		Name:          "upmin",
		Aliases:       []string{"u-pmin"},
		Summary:       "u-Pmin[k] — early-deciding uniform k-set consensus (§5, Thm. 3)",
		Uniform:       true,
		Unbeatable:    true,
		WorstCaseTime: horizon,
		New:           func(p Params) (Protocol, error) { return core.NewUPmin(p) },
		WireRule:      wire.RuleUPmin,
	})
	r.MustRegister(ProtocolSpec{
		Name:          "opt0",
		Summary:       "Opt0 — unbeatable consensus, the k=1 specialization of Optmin (§3)",
		Unbeatable:    true,
		WorstCaseTime: horizon,
		New: func(p Params) (Protocol, error) {
			if p.K != 1 {
				return nil, fmt.Errorf("opt0: consensus protocol needs k=1, got %d", p.K)
			}
			return core.NewOpt0(p.N, p.T)
		},
		WireRule: wire.RuleOptmin,
	})
	r.MustRegister(ProtocolSpec{
		Name:          "uopt0",
		Aliases:       []string{"u-opt0"},
		Summary:       "u-Opt0 — uniform consensus, the k=1 specialization of u-Pmin (§3)",
		Uniform:       true,
		Unbeatable:    true,
		WorstCaseTime: horizon,
		New: func(p Params) (Protocol, error) {
			if p.K != 1 {
				return nil, fmt.Errorf("uopt0: consensus protocol needs k=1, got %d", p.K)
			}
			return core.NewUOpt0(p.N, p.T)
		},
		WireRule: wire.RuleUPmin,
	})
	for _, b := range []struct {
		name, alias, summary string
		kind                 baseline.Kind
	}{
		{"floodmin", "", "FloodMin[k] — worst-case optimal flooding, decides at ⌊t/k⌋+1", baseline.FloodMin},
		{"earlycount", "", "EarlyCount[k] — nonuniform early deciding on known-failure counts", baseline.EarlyCount},
		{"u-earlycount", "uearlycount", "u-EarlyCount[k] — uniform early deciding on known-failure counts", baseline.UEarlyCount},
		{"perround", "", "PerRound[k] — nonuniform early deciding on per-round failure discovery", baseline.PerRound},
		{"u-perround", "uperround", "u-PerRound[k] — uniform early deciding on per-round failure discovery", baseline.UPerRound},
	} {
		kind := b.kind
		var aliases []string
		if b.alias != "" {
			aliases = []string{b.alias}
		}
		r.MustRegister(ProtocolSpec{
			Name:          b.name,
			Aliases:       aliases,
			Summary:       b.summary,
			Uniform:       kind.Uniform(),
			WorstCaseTime: horizon,
			New:           func(p Params) (Protocol, error) { return baseline.New(kind, p) },
		})
	}
	return r
}()

// DefaultRegistry returns the registry holding every built-in protocol.
// Callers may Register additional protocols on it; engines built without
// WithRegistry resolve names against it.
func DefaultRegistry() *Registry { return defaultRegistry }

// LookupProtocol resolves a name in the default registry.
func LookupProtocol(name string) (*ProtocolSpec, error) { return defaultRegistry.Lookup(name) }

// NewProtocol resolves a name in the default registry and constructs the
// protocol for params p.
func NewProtocol(name string, p Params) (Protocol, error) { return defaultRegistry.New(name, p) }

// Protocols returns the canonical names in the default registry.
func Protocols() []string { return defaultRegistry.Names() }
