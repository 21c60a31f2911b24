package wire

import (
	"encoding/binary"
	"fmt"
)

// Binary codec for fact messages: a varint fact count followed by
// (kind, proc, arg) varint triples. An "alive" heartbeat is the single
// byte 0x00. Every field is O(log n) bits, so with O(1) facts per
// (sender, subject) pair the per-link total is O(n log n) bits — the
// Lemma 6 budget, asserted by the accounting tests.

// Encode serializes a message's facts.
func Encode(facts []Fact) []byte {
	buf := make([]byte, 0, 1+len(facts)*6)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(uint64(len(facts)))
	for _, f := range facts {
		put(uint64(f.Kind))
		put(uint64(f.Proc))
		put(uint64(f.Arg))
	}
	return buf
}

// Decode parses a fact bundle of a run over n processes. It trusts
// nothing it reads: a count larger than the remaining bytes can hold
// (every fact takes at least three), an unknown kind, a process outside
// 0..n−1, a truncated field and trailing bytes are each an error, so an
// accepted bundle is safe to Deliver.
func Decode(b []byte, n int) ([]Fact, error) {
	get := func() (uint64, error) {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("wire: truncated message")
		}
		b = b[w:]
		return v, nil
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(b)/3) {
		return nil, fmt.Errorf("wire: %d facts cannot fit in %d bytes", count, len(b))
	}
	facts := make([]Fact, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, err := get()
		if err != nil {
			return nil, err
		}
		proc, err := get()
		if err != nil {
			return nil, err
		}
		arg, err := get()
		if err != nil {
			return nil, err
		}
		if kind < uint64(FactValue) || kind > uint64(FactSeen) {
			return nil, fmt.Errorf("wire: unknown fact kind %d", kind)
		}
		if proc >= uint64(n) {
			return nil, fmt.Errorf("wire: fact about process %d of %d", proc, n)
		}
		facts = append(facts, Fact{Kind: FactKind(kind), Proc: int(proc), Arg: int(arg)})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return facts, nil
}
