package core

import "sync"

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
//   - history hashes: the 64-bit FNV-1a hashes of the per-check interned
//     phase-2 history keys (the buckets of the check's dedup cache). A key
//     names operations and results by dense symbols interned in the order the
//     check first meets them, so the hash identifies a history's shape — its
//     call/return interleaving — up to a renaming of symbols that is
//     consistent within the check; it is not a hash of a canonical history.
//     Two tests that differ only in an argument or result value contribute
//     the same hashes. A mutant whose schedules produce an interleaving
//     shape no earlier test produced registers as new coverage even when it
//     touches no new location. Generate's trajectory depends on exactly this
//     equivalence (a finer key swamps the corpus with "new" histories), and
//     TestCoverageHistoryShapeSignal pins it.
//
// Coverage is observe-only — it never feeds a verdict — and safe for
// concurrent use (the parallel explorer merges outcomes from many workers).
// Totals are deterministic for a fixed sequence of checks because both
// signals are sets.
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

// add merges what a finished phase 2 observed — footprint pairs and
// history-shape hashes — at or before the entry it stopped at (nil: all of
// it), so that a check's contribution does not depend on what its workers
// had in flight when it stopped.
func (c *Coverage) add(acc *phase2Acc, stop *histEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for k, p := range acc.pairs {
		if !stop.before(p) {
			c.pairs[k] = struct{}{}
		}
	}
	for _, en := range acc.entries {
		if !stop.before(en.first) {
			c.hists[fnv1a64(en.key)] = struct{}{}
		}
	}
	c.mu.Unlock()
}
