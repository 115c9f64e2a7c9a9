package core

import (
	"bytes"
	"fmt"

	"lineup/internal/sched"
)

// histCache canonicalizes execution outcomes into a compact interned history
// encoding and memoizes per-history state. Phase 2 explores thousands of
// schedules that collapse to the same call/return interleaving; the cache
// decides each distinct history once and answers every further occurrence
// from the encoded key alone — without materializing a history.History, whose
// construction (event slice, op/result strings) dominated the dedup hot path.
//
// The encoding is built directly from the outcome's event stream: operation
// and result strings are interned to dense symbols, each event contributes
// its thread, kind, and symbols, and a stuck marker terminates the key.
// Results of relaxed operations are wildcarded during encoding, mirroring
// normalizeRelaxed, so spec and history keys agree. Keys are bucketed by a
// 64-bit FNV-1a hash and always compared byte-exact — a hash collision can
// never merge two distinct histories.
//
// histCache is not safe for concurrent use; the phase-2 accumulator
// serializes lookups under its own lock and runs witness decisions outside
// it (see phase2Acc).
type histCache struct {
	syms    map[string]uint32
	buckets map[uint64][]*histEntry
	buf     []byte // reusable encode buffer
	hits    int    // lookups answered by an existing entry
	entries int    // distinct histories interned
}

// histEntry is the memoized state of one distinct history: everything the
// phase-2 accumulator knows about it.
type histEntry struct {
	key   []byte
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
	// canon and schedule are recorded for unit reports only: the
	// process-independent name of the history (canonicalHistKey) and, for a
	// violating one, the first occurrence's decision schedule.
	canon    []byte
	schedule []sched.ThreadID
}

// before reports whether an exploration that stopped at en — nil when it ran
// to the end — stopped before reaching position p. In-flight work may have
// got there; a sequential run did not.
func (en *histEntry) before(p sched.Pos) bool {
	return en != nil && en.first.Before(p)
}

func newHistCache() *histCache {
	return &histCache{
		syms:    make(map[string]uint32),
		buckets: make(map[uint64][]*histEntry),
	}
}

func (hc *histCache) sym(s string) uint32 {
	if id, ok := hc.syms[s]; ok {
		return id
	}
	id := uint32(len(hc.syms))
	hc.syms[s] = id
	return id
}

func (hc *histCache) appendVarint(v uint32) {
	for v >= 0x80 {
		hc.buf = append(hc.buf, byte(v)|0x80)
		v >>= 7
	}
	hc.buf = append(hc.buf, byte(v))
}

// lookup canonicalizes out and returns its cache entry, reporting whether the
// history is new. It validates the outcome exactly like toHistory: events
// from the setup pseudo-thread and stuck executions without pending
// operations are errors.
func (hc *histCache) lookup(out *sched.Outcome, relaxed map[string]bool) (*histEntry, bool, error) {
	hc.buf = hc.buf[:0]
	pending := 0
	for i := range out.Events {
		e := &out.Events[i]
		if e.Thread == 0 {
			return nil, false, fmt.Errorf("core: unexpected history event from setup thread")
		}
		if e.Kind == sched.EvCall {
			pending++
			hc.appendVarint(uint32(e.Thread) << 1)
			hc.appendVarint(hc.sym(e.Op))
		} else {
			pending--
			hc.appendVarint(uint32(e.Thread)<<1 | 1)
			hc.appendVarint(hc.sym(e.Op))
			res := e.Result
			if relaxed[e.Op] {
				res = RelaxedResult
			}
			hc.appendVarint(hc.sym(res))
		}
	}
	if out.Stuck {
		if pending == 0 {
			return nil, false, fmt.Errorf("core: execution stuck outside any operation (constructor or init sequence blocked)")
		}
		hc.buf = append(hc.buf, 0xFF)
	}
	h := fnv1a64(hc.buf)
	for _, en := range hc.buckets[h] {
		if bytes.Equal(en.key, hc.buf) {
			hc.hits++
			return en, false, nil
		}
	}
	en := &histEntry{key: append([]byte(nil), hc.buf...), stuck: out.Stuck}
	hc.buckets[h] = append(hc.buckets[h], en)
	hc.entries++
	return en, true, nil
}

func fnv1a64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
