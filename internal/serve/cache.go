package serve

import (
	"encoding/binary"
	"sync"

	"lineup/internal/history"
)

// maxCacheEntries bounds the window cache: a put that finds it full starts a
// fresh map. A stream whose windows never repeat would otherwise store one
// entry per checked window, never read, for the life of the process.
const maxCacheEntries = 1 << 16

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
	mu  sync.Mutex
	m   map[string]*windowEntry
	buf []byte
	ids map[int]uint64 // scratch: op index relabeling, reset per lookup
}

// windowEntry is one cached transition.
type windowEntry struct {
	ok     bool
	states []string
}

func newWindowCache() *windowCache {
	return &windowCache{m: make(map[string]*windowEntry), ids: make(map[int]uint64)}
}

// appendString appends s length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// lookup returns the cached entry for (states, events), or (key, nil) on a
// miss; the caller passes the key back to put once the transition is
// computed.
func (c *windowCache) lookup(states []string, events []history.Event) (string, *windowEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := binary.AppendUvarint(c.buf[:0], uint64(len(states)))
	for _, st := range states {
		b = appendString(b, st)
	}
	clear(c.ids)
	for _, e := range events {
		id, ok := c.ids[e.Index]
		if !ok {
			id = uint64(len(c.ids))
			c.ids[e.Index] = id
		}
		if e.Kind == history.Call {
			b = appendString(binary.AppendUvarint(append(b, 0), id), e.Op)
		} else {
			b = appendString(binary.AppendUvarint(append(b, 1), id), e.Result)
		}
	}
	c.buf = b
	if en, ok := c.m[string(b)]; ok {
		return "", en
	}
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
