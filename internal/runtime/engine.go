// Package runtime executes the compact wire protocol on a real
// message-passing engine: one goroutine per process, channels as links,
// and a router applying the failure pattern that gathers every outbox of
// a round before it delivers any — the synchronous model of §2.1 made
// concrete. Every process decides by
// the one compact rule, wire.State.Decide, and Run records the decisions
// in the caller's sim.Scratch, the oracle simulator's decision record.
// The tests cross-check them bit for bit against the deterministic
// oracle; the engine exists to demonstrate that the protocols run
// unchanged on actual concurrent message passing, not just on the
// oracle.
package runtime

import (
	"fmt"
	"sync"

	"setconsensus/internal/core"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/wire"
)

// encodePayload serializes a round's outbox. It is a variable so the
// corrupt-payload error path can be exercised by tests.
var encodePayload = wire.Encode

// Inbound is one received message.
type Inbound struct {
	From    model.Proc
	Payload []byte
}

// process is one goroutine's protocol instance: the compact wire state,
// the chosen decision rule, and the process's own decision, which only
// its goroutine writes.
type process struct {
	id    model.Proc
	rule  wire.Rule
	p     core.Params
	state *wire.State

	decided  bool
	decision sim.Decision
	err      error
}

// maybeDecide asks the wire rule at time m, if the process is undecided.
func (pr *process) maybeDecide(m int) {
	if pr.decided {
		return
	}
	if v, ok := pr.state.Decide(pr.rule, pr.p, m); ok {
		pr.decided, pr.decision = true, sim.Decision{Value: v, Time: m}
	}
}

// Run executes the protocol on goroutines against the adversary, records
// every decision in sc, which it resets for the adversary's processes,
// and returns the decisions, which alias sc. The router goroutine
// enforces the failure pattern; each process goroutine computes rounds
// concurrently and keeps its own decision: Run puts them into sc only
// once every goroutine has returned, because Put writes a mask word that
// neighbouring processes share. The rounds need no barrier: the router
// reads all n outboxes of a round before it delivers any, and a process
// sends its next round's outbox only after it has received this round's
// delivery, so no outbox can cross into another round. A payload that
// wire.Decode rejects fails the run with a "corrupt payload" error.
func Run(rule wire.Rule, p core.Params, adv *model.Adversary, sc *sim.Scratch) ([]*sim.Decision, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if adv.N() != p.N {
		return nil, fmt.Errorf("runtime: adversary over %d processes, params say %d", adv.N(), p.N)
	}
	n := adv.N()
	horizon := p.T/p.K + 1

	type outMsg struct {
		from    model.Proc
		payload []byte
	}
	outCh := make(chan outMsg, n)     // round outboxes to the router
	inCh := make([]chan []Inbound, n) // per-process round deliveries
	procs := make([]*process, n)
	for i := 0; i < n; i++ {
		inCh[i] = make(chan []Inbound, 1)
		procs[i] = &process{id: i, rule: rule, p: p, state: wire.NewState(n, i, adv.Inputs[i])}
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(pr *process) {
			defer wg.Done()
			// Time 0: local decision attempt, no messages yet.
			pr.maybeDecide(0)
			for m := 1; m <= horizon; m++ {
				if !adv.Pattern.Active(pr.id, m-1) {
					// Dead at send time: an empty outbox, so the router
					// still gathers n of them, and the round's delivery.
					outCh <- outMsg{from: pr.id, payload: nil}
					<-inCh[pr.id]
					continue
				}
				pr.state.Snapshot(pr.p.K)
				outCh <- outMsg{from: pr.id, payload: encodePayload(pr.state.Outbox())}
				msgs := <-inCh[pr.id]
				// A decode failure poisons this process but must not stop
				// it from sending its outbox to outCh and draining its
				// deliveries from inCh every round: the router and the
				// other goroutines would deadlock otherwise. The first
				// error is threaded back through Run's error return.
				if adv.Pattern.Active(pr.id, m) && pr.err == nil {
					inbound := make([]wire.Message, 0, len(msgs))
					for _, im := range msgs {
						facts, err := wire.Decode(im.Payload, n)
						if err != nil {
							pr.err = fmt.Errorf("runtime: corrupt payload from %d in round %d: %w", im.From, m, err)
							break
						}
						inbound = append(inbound, wire.Message{From: im.From, Round: m, Facts: facts})
					}
					if pr.err == nil {
						pr.state.Deliver(m, inbound)
						pr.maybeDecide(m)
					}
				}
			}
		}(procs[i])
	}

	// Router: per round, gather every outbox, then apply the pattern and
	// deliver.
	routerDone := make(chan struct{})
	go func() {
		defer close(routerDone)
		for m := 1; m <= horizon; m++ {
			payloads := make([][]byte, n)
			for c := 0; c < n; c++ {
				om := <-outCh
				payloads[om.from] = om.payload
			}
			for j := 0; j < n; j++ {
				var msgs []Inbound
				for i := 0; i < n; i++ {
					if i == j || payloads[i] == nil {
						continue
					}
					if adv.Pattern.Delivered(i, j, m) && adv.Pattern.Active(j, m) {
						msgs = append(msgs, Inbound{From: i, Payload: payloads[i]})
					}
				}
				inCh[j] <- msgs
			}
		}
	}()

	wg.Wait()
	<-routerDone
	decs := sc.Reset(n)
	for i, pr := range procs {
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.decided {
			sc.Put(i, pr.decision)
		}
	}
	return decs, nil
}
