package serve

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"lineup/internal/history"
)

// windowCache deduplicates window transitions across partitions, the same
// technique as the phase-2 history cache of internal/core: canonical byte
// encoding, interned symbols, FNV-1a bucketing with byte-exact comparison.
// The key is (frontier states, canonical window); the value is the transition
// result — whether the window linearized and the resulting frontier states. A
// model state is a string and Step is deterministic, so equal keys are equal
// transitions and replaying a cached frontier is sound. Operation indices and
// thread ids are relabeled densely in first-appearance order during encoding:
// they carry no meaning beyond pairing calls with returns, and relabeling lets
// identical workloads on different partitions — whose global op indices
// necessarily differ — share entries.
type windowCache struct {
	mu      sync.Mutex
	syms    map[string]uint32
	buckets map[uint64][]*windowEntry
	buf     []byte
	ids     map[int]uint32 // scratch: op index relabeling, reset per encode
}

// windowEntry is one cached transition.
type windowEntry struct {
	key    []byte
	ok     bool
	states []string
}

func newWindowCache() *windowCache {
	return &windowCache{
		syms:    make(map[string]uint32),
		buckets: make(map[uint64][]*windowEntry),
		ids:     make(map[int]uint32),
	}
}

func (c *windowCache) sym(s string) uint32 {
	id, ok := c.syms[s]
	if !ok {
		id = uint32(len(c.syms))
		c.syms[s] = id
	}
	return id
}

// encode builds the canonical key into c.buf. Caller holds c.mu.
func (c *windowCache) encode(states []string, events []history.Event) {
	c.buf = c.buf[:0]
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint32) {
		n := binary.PutUvarint(tmp[:], uint64(v))
		c.buf = append(c.buf, tmp[:n]...)
	}
	put(uint32(len(states)))
	for _, st := range states {
		put(c.sym(st))
	}
	for k := range c.ids {
		delete(c.ids, k)
	}
	for _, e := range events {
		id, ok := c.ids[e.Index]
		if !ok {
			id = uint32(len(c.ids))
			c.ids[e.Index] = id
		}
		if e.Kind == history.Call {
			c.buf = append(c.buf, 0)
			put(id)
			put(c.sym(e.Op))
		} else {
			c.buf = append(c.buf, 1)
			put(id)
			put(c.sym(e.Result))
		}
	}
}

// lookup returns the cached entry for (states, events), or (key, nil) on a
// miss; the returned key is a copy the caller passes back to put once the
// transition is computed.
func (c *windowCache) lookup(states []string, events []history.Event) ([]byte, *windowEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encode(states, events)
	h := fnv.New64a()
	_, _ = h.Write(c.buf)
	sum := h.Sum64()
	for _, e := range c.buckets[sum] {
		if string(e.key) == string(c.buf) {
			return nil, e
		}
	}
	return append([]byte(nil), c.buf...), nil
}

// put records a computed transition under a key returned by lookup. A
// concurrent duplicate (two workers computing the same transition) keeps the
// first entry; the values are identical by determinism of the search. It
// reports whether the entry is new.
func (c *windowCache) put(key []byte, ok bool, states []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := fnv.New64a()
	_, _ = h.Write(key)
	sum := h.Sum64()
	for _, e := range c.buckets[sum] {
		if string(e.key) == string(key) {
			return false
		}
	}
	c.buckets[sum] = append(c.buckets[sum], &windowEntry{key: key, ok: ok, states: states})
	return true
}
