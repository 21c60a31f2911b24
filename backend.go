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

// runBuffer is a worker's scratch for its runs: the request, one
// reusable Result, pooled decision storage, reusable verification sets,
// and the backend-extra structs. A runBuffer serves one goroutine; the
// Result a run returns aliases the buffer and is valid only until the
// next run on it. See the recycle contract in engine.go for who may
// retain what.
type runBuffer struct {
	req    runRequest
	res    Result
	sim    sim.Scratch
	simres sim.Result
	verify check.Scratch
	bits   BitStats
}

// bytes reports the pooled scratch capacity the buffer pins — the
// decision slab and the verification sets, the parts that grow with the
// workload. The fixed-size struct shell is noise and not counted.
func (b *runBuffer) bytes() int64 { return b.sim.Bytes() + b.verify.Bytes() }

// verifyResult checks a pooled result against task using only the
// buffer's reusable storage; nothing allocates unless a violation
// renders its diagnostic.
func (b *runBuffer) verifyResult(r *Result, task Task) error {
	b.simres.ProtocolName, b.simres.Adv, b.simres.Decisions = r.Protocol, r.adv, r.Decisions
	return b.verify.VerifyRun(&b.simres, task)
}

// backend executes one protocol run. The three implementations adapt the
// oracle simulator (internal/sim), the goroutine message-passing engine
// (internal/runtime), and the compact wire runner (internal/wire) to one
// contract: run the buffer's request into its pooled storage and return
// the buffer's Result — errors, never panics.
type backend interface {
	// needsGraph reports whether run requires a precomputed knowledge
	// graph; the Engine supplies (and shares) one when it does.
	needsGraph() bool
	// run executes buf's request and returns buf's Result, valid only
	// until the next run on the same buffer: no per-run heap objects, and
	// no display extras — the Result's Adversary string and GraphStats
	// are left for detach to fill in on the Results that escape. run does
	// not poll a context; the engine checks it once per adversary.
	run(buf *runBuffer) (*Result, error)
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

func (oracleBackend) run(buf *runBuffer) (*Result, error) {
	req := &buf.req
	if req.proto == nil {
		return nil, req.err
	}
	sim.RunWithGraphInto(req.proto, req.graph, &buf.sim, &buf.simres)
	return buf.result(Oracle, buf.simres.Decisions), nil
}

// goroutineBackend runs the concurrent message-passing engine.
type goroutineBackend struct{}

func (goroutineBackend) needsGraph() bool { return false }

func (goroutineBackend) run(buf *runBuffer) (*Result, error) {
	req := &buf.req
	if err := requireWireCapable(req.spec, Goroutines); err != nil {
		return nil, err
	}
	rtRes, err := runtime.Run(req.spec.WireRule, req.params, req.adv)
	if err != nil {
		return nil, err
	}
	decs := buf.sim.Reset(len(rtRes.Decisions))
	for i, d := range rtRes.Decisions {
		if d != nil {
			buf.sim.Put(i, Decision{Value: d.Value, Time: d.Time})
		}
	}
	return buf.result(Goroutines, decs), nil
}

// wireBackend runs the deterministic compact-protocol runner with bit
// accounting.
type wireBackend struct{}

func (wireBackend) needsGraph() bool { return false }

func (wireBackend) run(buf *runBuffer) (*Result, error) {
	req := &buf.req
	if err := requireWireCapable(req.spec, Wire); err != nil {
		return nil, err
	}
	wRes, err := wire.Run(req.spec.WireRule, req.params, req.adv)
	if err != nil {
		return nil, err
	}
	decs := buf.sim.Reset(len(wRes.Decisions))
	for i, d := range wRes.Decisions {
		if d != nil {
			buf.sim.Put(i, Decision{Value: d.Value, Time: d.Time})
		}
	}
	res := buf.result(Wire, decs)
	bitStatsInto(&buf.bits, wRes)
	res.Bits = &buf.bits
	return res, nil
}
