package core

import (
	"encoding/binary"
	"fmt"

	"lineup/internal/sched"
)

// histCache memoizes per-history state for phase 2. Phase 2 explores
// thousands of schedules that collapse to the same call/return interleaving;
// the cache decides each distinct history once and answers every further
// occurrence from its key alone — without materializing a history.History,
// whose construction (event slice, op/result strings) dominated the dedup hot
// path.
//
// A history's key is its own bytes, built directly from the outcome's event
// stream: per event the uvarint thread<<1|kind, then the length-prefixed
// operation and, on a return, the length-prefixed result — wildcarded for a
// relaxed operation, mirroring normalizeRelaxed, so spec and history keys
// agree — and a stuck execution ends in 0xFF. Every event is at least two
// bytes, so a lone trailing byte can only be that marker, and the key decodes
// back to its events: equal keys are equal histories. The key names nothing
// outside itself, so it is the same in every worker and every process, which
// is what lets unit reports (UnitKey.Key) merge across processes.
//
// histCache is not safe for concurrent use; the phase-2 accumulator
// serializes lookups under its own lock and runs witness decisions outside
// it (see phase2Acc).
type histCache struct {
	m    map[string]*histEntry
	buf  []byte // reusable encode buffer
	hits int    // lookups answered by an existing entry
}

// histEntry is the memoized state of one distinct history: everything the
// phase-2 accumulator knows about it.
type histEntry struct {
	key   string
	stuck bool
	// Witness memoization: violating, v and err are the decision for this
	// history, written by the first visitor; done is non-nil while that
	// decision is in flight and closed once it is final, so concurrent
	// visitors of the same key can wait. A merged
	// distributed entry is violating with v nil until the merge regenerates
	// the violation by replay.
	violating bool
	v         *Violation
	err       error
	done      chan struct{}
	// first is the minimal position at which an execution collapsed to this
	// history — exactly where a sequential exploration first meets it.
	first sched.Pos
	// schedule is, for a violating history, the first occurrence's decision
	// schedule: what a unit report carries to regenerate the violation.
	schedule []sched.ThreadID
}

// before reports whether an exploration that stopped at en — nil when it ran
// to the end — stopped before reaching position p. In-flight work may have
// got there; a sequential run did not.
func (en *histEntry) before(p sched.Pos) bool {
	return en != nil && en.first.Before(p)
}

func newHistCache() *histCache {
	return &histCache{m: make(map[string]*histEntry)}
}

// appendString appends s length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// lookup encodes out's history into its key and returns its cache entry,
// reporting whether the history is new. It validates the outcome exactly like
// toHistory: events from the setup pseudo-thread and stuck executions without
// pending operations are errors.
func (hc *histCache) lookup(out *sched.Outcome, relaxed map[string]bool) (*histEntry, bool, error) {
	b := hc.buf[:0]
	pending := 0
	for i := range out.Events {
		e := &out.Events[i]
		if e.Thread == 0 {
			return nil, false, fmt.Errorf("core: unexpected history event from setup thread")
		}
		if e.Kind == sched.EvCall {
			pending++
			b = appendString(binary.AppendUvarint(b, uint64(e.Thread)<<1), e.Op)
			continue
		}
		pending--
		b = appendString(binary.AppendUvarint(b, uint64(e.Thread)<<1|1), e.Op)
		res := e.Result
		if relaxed[e.Op] {
			res = RelaxedResult
		}
		b = appendString(b, res)
	}
	if out.Stuck {
		if pending == 0 {
			return nil, false, fmt.Errorf("core: execution stuck outside any operation (constructor or init sequence blocked)")
		}
		b = append(b, 0xFF)
	}
	hc.buf = b
	if en, ok := hc.m[string(b)]; ok {
		hc.hits++
		return en, false, nil
	}
	en := &histEntry{key: string(b), stuck: out.Stuck}
	hc.m[en.key] = en
	return en, true, nil
}
