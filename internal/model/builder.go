package model

import (
	"fmt"

	"setconsensus/internal/bitset"
)

// Builder assembles adversaries fluently. It exists because the paper's
// constructions (Figs. 1–4, Lemma 2) are stated as "process p crashes in
// round c sending only to q"; tests and experiments read far better when
// they can say the same thing.
type Builder struct {
	inputs  []Value
	pattern *FailurePattern
	err     error
}

// NewBuilder starts an adversary over n processes, all with initial value
// defaultValue and no crashes.
func NewBuilder(n int, defaultValue Value) *Builder {
	in := make([]Value, n)
	for i := range in {
		in[i] = defaultValue
	}
	return &Builder{inputs: in, pattern: NewFailurePattern(n)}
}

// Input sets process p's initial value.
func (b *Builder) Input(p Proc, v Value) *Builder {
	if b.err != nil {
		return b
	}
	if p < 0 || p >= len(b.inputs) {
		b.err = fmt.Errorf("model: Input(%d) out of range", p)
		return b
	}
	b.inputs[p] = v
	return b
}

// Inputs sets all initial values at once.
func (b *Builder) Inputs(vs ...Value) *Builder {
	if b.err != nil {
		return b
	}
	if len(vs) != len(b.inputs) {
		b.err = fmt.Errorf("model: Inputs got %d values for %d processes", len(vs), len(b.inputs))
		return b
	}
	copy(b.inputs, vs)
	return b
}

// CrashSendingTo makes p crash in round `round`, delivering its round-
// `round` message only to the listed receivers.
func (b *Builder) CrashSendingTo(p Proc, round int, receivers ...Proc) *Builder {
	return b.crash(Crash{Proc: p, Round: round, Delivered: bitset.FromSlice(receivers)})
}

// CrashSilent makes p crash in round `round` delivering nothing.
func (b *Builder) CrashSilent(p Proc, round int) *Builder {
	return b.CrashSendingTo(p, round)
}

// CrashSendingToAll makes p crash in round `round` after a complete send:
// the crash is first observable in round round+1, when p falls silent.
func (b *Builder) CrashSendingToAll(p Proc, round int) *Builder {
	return b.crash(Crash{Proc: p, Round: round, Delivered: bitset.Full(len(b.inputs))})
}

// CrashSendingToAllBut makes p crash in round `round`, delivering to
// everyone except the listed victims.
func (b *Builder) CrashSendingToAllBut(p Proc, round int, victims ...Proc) *Builder {
	d := bitset.Full(len(b.inputs))
	for _, v := range victims {
		d.Remove(v)
	}
	return b.crash(Crash{Proc: p, Round: round, Delivered: d})
}

// crash records c unless the builder has failed or c's process already
// crashes.
func (b *Builder) crash(c Crash) *Builder {
	if b.err != nil {
		return b
	}
	if b.pattern.Faulty(c.Proc) {
		b.err = fmt.Errorf("model: process %d crashes twice", c.Proc)
		return b
	}
	b.pattern.SetCrash(c)
	return b
}

// Build returns the adversary, or the first recorded construction error.
func (b *Builder) Build() (*Adversary, error) {
	if b.err != nil {
		return nil, b.err
	}
	return NewAdversary(b.inputs, b.pattern), nil
}

// MustBuild is Build for tests and fixed constructions; it panics on error.
func (b *Builder) MustBuild() *Adversary {
	a, err := b.Build()
	if err != nil {
		panic(err)
	}
	return a
}
