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
// operation and, on a return, the length-prefixed result as recorded — the
// program has already wildcarded a relaxed operation's (see Relax) — and a
// stuck execution ends in 0xFF. Every event is at least two bytes, so a lone
// trailing byte can only be that marker, and the key decodes back to its
// events: equal keys are equal histories. The key names nothing
// outside itself, so it is the same in every worker and every process, which
// is what lets unit reports (UnitKey.Key) merge across processes.
//
// A key is encoded by appendKey into a buffer its caller owns, and histCache
// only probes. histCache is not safe for concurrent use: the phase-2
// accumulator encodes outside its lock, probes under it and decides outside
// it (see phase2Acc).
type histCache struct {
	m    map[string]*histEntry
	hits int // probes answered by an existing entry
}

// histEntry is the memoized state of one distinct history: everything the
// phase-2 accumulator knows about it.
type histEntry struct {
	key   string
	stuck bool
	// Witness memoization: violating, v and err are the decision for this
	// history, written by the first visitor while deciding is set; the first
	// other visitor to wait for it makes done, closed once it is final. A
	// merged distributed entry is violating with v nil until the merge
	// regenerates the violation by replay.
	violating bool
	v         *Violation
	err       error
	deciding  bool
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

// appendKey appends the key of out's history to b. It validates the outcome
// exactly like OutcomeHistory: events from the setup pseudo-thread and stuck
// executions without pending operations are errors.
func appendKey(b []byte, out *sched.Outcome) ([]byte, error) {
	pending := 0
	for i := range out.Events {
		e := &out.Events[i]
		if e.Thread == 0 {
			return b, fmt.Errorf("core: unexpected history event from setup thread")
		}
		if e.Kind == sched.EvCall {
			pending++
			b = appendString(binary.AppendUvarint(b, uint64(e.Thread)<<1), e.Op)
			continue
		}
		pending--
		b = appendString(appendString(binary.AppendUvarint(b, uint64(e.Thread)<<1|1), e.Op), e.Result)
	}
	if out.Stuck {
		if pending == 0 {
			return b, fmt.Errorf("core: execution stuck outside any operation (constructor or init sequence blocked)")
		}
		b = append(b, 0xFF)
	}
	return b, nil
}

// probe returns the cache entry of the history whose key is key, reporting
// whether the history is new.
func (hc *histCache) probe(key []byte, stuck bool) (*histEntry, bool) {
	if en, ok := hc.m[string(key)]; ok {
		hc.hits++
		return en, false
	}
	en := &histEntry{key: string(key), stuck: stuck}
	hc.m[en.key] = en
	return en, true
}
