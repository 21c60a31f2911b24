package setconsensus

import (
	"fmt"

	"setconsensus/internal/check"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/runtime"
	"setconsensus/internal/sim"
	"setconsensus/internal/wire"
)

// runRequest carries everything one protocol run needs. The Engine fills
// the one in its worker's runBuffer per (protocol, adversary) pair and
// shares the expensive parts across the runs of a sweep: the knowledge
// graph is per adversary, and the constructed protocol instance and its
// runtime name are cached per (ref, params).
type runRequest struct {
	ref  string
	spec *ProtocolSpec
	// protoEntry holds the constructed full-information protocol
	// instance, nil when construction fails under these params (err then
	// holds why; the compact backends can still run their wire rule), and
	// the runtime display name ("Optmin[2]"). Instances are cached and
	// shared across runs and workers: decision rules are pure functions
	// of the view, so sharing is safe by construction.
	protoEntry
	params Params
	adv    *model.Adversary
	// graph is non-nil exactly when the backend's needsGraph reports
	// true.
	graph *knowledge.Graph
}

// runBuffer is a worker's scratch for its runs: the request, the pooled
// decision storage with its decider mask (sim), the run record over it
// (simres), the verification sets and the Wire backend's bit counts. No
// pooled Result exists: a folding sweep reads the run from simres and
// bits, and detach builds a Result only for a run that escapes. A
// runBuffer serves one goroutine, and the next run on it overwrites
// everything. See the recycle contract in engine.go for who may retain
// what.
type runBuffer struct {
	req    runRequest
	sim    sim.Scratch
	simres sim.Result
	verify check.Scratch
	bits   BitStats // zero off the Wire backend, where it folds as nothing
}

// bytes reports the pooled scratch capacity the buffer pins — the
// decision slab with its masks and the verification sets, the parts
// that grow with the workload. The fixed-size struct shell is noise and
// not counted.
func (b *runBuffer) bytes() int64 { return b.sim.Bytes() + b.verify.Bytes() }

// forget zeroes every pointer the buffer keeps to its last run — the
// request's adversary and graph, the run record's adversary, graph and
// decisions — so a pooled buffer pins nothing of a finished call.
func (b *runBuffer) forget() {
	b.req, b.simres = runRequest{}, sim.Result{}
}

// record fills the run record from a compact backend's decisions, which
// alias b.sim.
func (b *runBuffer) record(decs []*Decision) {
	sr := &b.simres
	sr.ProtocolName, sr.Adv, sr.Graph, sr.Decisions, sr.Deciders = b.req.name, b.req.adv, nil, decs, b.sim.Deciders()
}

// backend executes one protocol run. The three implementations adapt the
// oracle simulator (internal/sim), the goroutine message-passing engine
// (internal/runtime), and the compact wire runner (internal/wire) to one
// contract: run the buffer's request, deciding into the buffer's pooled
// scratch and filling its run record — errors, never panics.
type backend interface {
	// needsGraph reports whether run requires a precomputed knowledge
	// graph; the Engine supplies (and shares) one when it does.
	needsGraph() bool
	// run executes buf's request into buf.sim and buf.simres, and on the
	// Wire backend buf.bits, all valid only until the next run on the
	// same buffer: no per-run heap objects on the Oracle backend, and no
	// Result. run does not poll a context; the engine checks it once per
	// claimed window.
	run(buf *runBuffer) error
}

// backendFor maps a kind to its implementation.
func backendFor(k BackendKind) (backend, error) {
	switch k {
	case Oracle:
		return oracleBackend{}, nil
	case Goroutines:
		return goroutineBackend{}, nil
	case Wire:
		return wireBackend{}, nil
	}
	return nil, fmt.Errorf("engine: unknown backend %d", int(k))
}

// requireWireCapable gates the compact backends to the protocols the
// Appendix E encoding can carry.
func requireWireCapable(spec *ProtocolSpec, kind BackendKind) error {
	if !spec.WireCapable() {
		return fmt.Errorf("engine: protocol %q is full-information only and cannot run on the %s backend (use Oracle)",
			spec.Name, kind)
	}
	return nil
}

// oracleBackend runs the deterministic full-information simulator over a
// shared knowledge graph.
type oracleBackend struct{}

func (oracleBackend) needsGraph() bool { return true }

func (oracleBackend) run(buf *runBuffer) error {
	req := &buf.req
	if req.proto == nil {
		return req.err
	}
	sim.RunWithGraphInto(req.proto, req.graph, &buf.sim, &buf.simres)
	return nil
}

// goroutineBackend runs the concurrent message-passing engine.
type goroutineBackend struct{}

func (goroutineBackend) needsGraph() bool { return false }

func (goroutineBackend) run(buf *runBuffer) error {
	req := &buf.req
	if err := requireWireCapable(req.spec, Goroutines); err != nil {
		return err
	}
	decs, err := runtime.Run(req.spec.WireRule, req.params, req.adv, &buf.sim)
	if err != nil {
		return err
	}
	buf.record(decs)
	return nil
}

// wireBackend runs the deterministic compact-protocol runner with bit
// accounting.
type wireBackend struct{}

func (wireBackend) needsGraph() bool { return false }

func (wireBackend) run(buf *runBuffer) error {
	req := &buf.req
	if err := requireWireCapable(req.spec, Wire); err != nil {
		return err
	}
	wRes, err := wire.Run(req.spec.WireRule, req.params, req.adv, &buf.sim)
	if err != nil {
		return err
	}
	buf.record(wRes.Decisions)
	bitStatsInto(&buf.bits, wRes)
	return nil
}
