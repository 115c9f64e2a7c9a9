package serve

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"lineup/internal/history"
)

// maxCacheEntries bounds the window cache: a put that finds it full starts a
// fresh map. A stream whose windows never repeat would otherwise store one
// entry per checked window, never read, for the life of the process.
const maxCacheEntries = 1 << 16

// bypassAfter is the run of misses after which the cache is bypassed, and
// the stride of the probes that look up while it is: on a stream whose
// windows never repeat a lookup is pure cost (the key is built and hashed for
// nothing), while a stream that repeats them hits on almost every window and
// misses in runs far shorter than this. A skipped lookup is a miss, and the
// window is decided by the search as any miss is, so no verdict depends on it.
const bypassAfter = 64

// windowCache deduplicates window transitions across partitions. The key is
// (frontier states, window) written as its own bytes: the number of states,
// each state length-prefixed, then per event its kind, its operation index
// relabeled densely in first-appearance order and, length-prefixed, the
// operation of a call or the result of a return. The value is the transition
// result — whether the window linearized and the resulting frontier states. A
// model state is a string and Step is deterministic, so equal keys are equal
// transitions and replaying a cached frontier is sound. Operation indices
// carry no meaning beyond pairing calls with returns, and relabeling them lets
// identical workloads on different partitions — whose global op indices
// necessarily differ — share entries.
type windowCache struct {
	// missRun is the number of lookups in a row that missed, and bypassed the
	// number of windows consult has seen since it reached bypassAfter. Both
	// are read before any key is built.
	missRun  atomic.Int64
	bypassed atomic.Int64

	mu   sync.Mutex
	m    map[string]*windowEntry
	buf  []byte
	open []relabeled // scratch: the window's open calls while a key is written
}

// relabeled is an operation index and the id the key writes for it.
type relabeled struct {
	index int
	id    uint64
}

// windowEntry is one cached transition.
type windowEntry struct {
	ok     bool
	states []string
}

func newWindowCache() *windowCache {
	return &windowCache{m: make(map[string]*windowEntry)}
}

// appendString appends s length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// consult reports whether the next window should be looked up: always while
// lookups hit, and once bypassAfter of them in a row have missed, only every
// bypassAfter-th window, as a probe whose first hit turns the cache back on.
func (c *windowCache) consult() bool {
	return c.missRun.Load() < bypassAfter || c.bypassed.Add(1)%bypassAfter == 0
}

// lookup returns the cached entry for (states, events), or (key, nil) on a
// miss; the caller passes the key back to put once the transition is
// computed. A call takes the next id and a return the id of its call, found
// among the open calls, which are never more than the partition's
// concurrency.
func (c *windowCache) lookup(states []string, events []history.Event) (string, *windowEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := binary.AppendUvarint(c.buf[:0], uint64(len(states)))
	for _, st := range states {
		b = appendString(b, st)
	}
	c.open = c.open[:0]
	next := uint64(0)
	for _, e := range events {
		if e.Kind == history.Call {
			c.open = append(c.open, relabeled{e.Index, next})
			b = appendString(binary.AppendUvarint(append(b, 0), next), e.Op)
			next++
			continue
		}
		id := next // a return whose call is not in the window takes a fresh id
		if k := slices.IndexFunc(c.open, func(o relabeled) bool { return o.index == e.Index }); k >= 0 {
			id = c.open[k].id
			c.open = slices.Delete(c.open, k, k+1)
		} else {
			next++
		}
		b = appendString(binary.AppendUvarint(append(b, 1), id), e.Result)
	}
	c.buf = b
	if en, ok := c.m[string(b)]; ok {
		c.missRun.Store(0)
		return "", en
	}
	c.missRun.Add(1)
	return string(b), nil
}

// put records a computed transition under a key returned by lookup. A
// concurrent duplicate (two workers computing the same transition) keeps the
// first entry; the values are identical by determinism of the search. It
// reports whether the entry is new.
func (c *windowCache) put(key string, ok bool, states []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup {
		return false
	}
	if len(c.m) >= maxCacheEntries {
		c.m = make(map[string]*windowEntry)
	}
	c.m[key] = &windowEntry{ok: ok, states: states}
	return true
}
