package core

import (
	"encoding/binary"
	"sort"
	"sync"
)

// Coverage accumulates the two feedback signals of coverage-guided test
// generation across any number of checks:
//
//   - footprint pairs: the distinct (MemKind, location) pairs phase-2
//     executions touch, as exported by sched.Outcome.Coverage. Location
//     identifiers are dense per execution and allocated in construction
//     order, so pairs are comparable across executions and tests of the same
//     subject; a mutant that drives the subject through a new access kind on
//     a location (say, the first contended CAS on a tail pointer) registers
//     as new coverage.
//   - history shapes: 64-bit FNV-1a hashes of a check's phase-2 histories
//     modulo a renaming of operation and result strings. Within one check,
//     strings are numbered by first appearance over its histories in
//     position order — the order a sequential exploration meets them — so
//     the hash identifies a history's call/return interleaving up to a
//     renaming consistent within the check, and does not depend on how many
//     workers explored. Two tests that differ only in an argument or result
//     value contribute the same hashes. A mutant whose schedules produce an
//     interleaving shape no earlier test produced registers as new coverage
//     even when it touches no new location. Generate's trajectory depends on
//     exactly this equivalence (a finer key swamps the corpus with "new"
//     histories), and TestCoverageHistoryShapeSignal pins it.
//
// Coverage is observe-only — it never feeds a verdict — and safe for
// concurrent use. Totals are deterministic for a fixed sequence of checks
// because both signals are sets.
type Coverage struct {
	mu    sync.Mutex
	pairs map[uint64]struct{}
	hists map[uint64]struct{}
}

// NewCoverage creates an empty coverage accumulator.
func NewCoverage() *Coverage {
	return &Coverage{
		pairs: make(map[uint64]struct{}),
		hists: make(map[uint64]struct{}),
	}
}

// Pairs returns the number of distinct (MemKind, location) pairs observed.
func (c *Coverage) Pairs() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pairs)
}

// Hists returns the number of distinct phase-2 history shapes observed.
func (c *Coverage) Hists() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hists)
}

// add merges what a finished phase 2 observed — footprint pairs and history
// shapes — at or before the entry it stopped at (nil: all of it), so that a
// check's contribution does not depend on what its workers had in flight when
// it stopped, nor on the order in which they met its histories.
func (c *Coverage) add(acc *phase2Acc, stop *histEntry) {
	if c == nil {
		return
	}
	var seen []*histEntry
	for _, en := range acc.entries {
		if !stop.before(en.first) {
			seen = append(seen, en)
		}
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].first.Before(seen[j].first) })
	// A shape is the key (histCache) with each string replaced by its number.
	names := make(map[string]uint64)
	var shape []byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, p := range acc.pairs {
		if !stop.before(p) {
			c.pairs[k] = struct{}{}
		}
	}
	for _, en := range seen {
		shape = shape[:0]
		k := []byte(en.key)
		for len(k) > 1 {
			ev, n := binary.Uvarint(k)
			shape, k = binary.AppendUvarint(shape, ev), k[n:]
			for i := uint64(0); i <= ev&1; i++ { // the operation, and a return's result
				l, n := binary.Uvarint(k)
				s := string(k[n : n+int(l)])
				id, ok := names[s]
				if !ok {
					id = uint64(len(names))
					names[s] = id
				}
				shape, k = binary.AppendUvarint(shape, id), k[n+int(l):]
			}
		}
		c.hists[fnv1a64(append(shape, k...))] = struct{}{} // k is the stuck marker, if any
	}
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
