package subjects

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// mapShards is the shard count of ShardedMap. Two shards keep the explored
// state space small while still exhibiting every cross-shard interleaving a
// larger map would.
const mapShards = 2

type kv struct {
	k, v int
}

type mapShard struct {
	mu   *vsync.Mutex
	data *vsync.Cell[[]kv]
}

func newMapShard(t *sched.Thread, name string) *mapShard {
	return &mapShard{
		mu:   vsync.NewMutex(t, name+".mu"),
		data: vsync.NewCell(t, name+".data", []kv(nil)),
	}
}

func (s *mapShard) get(t *sched.Thread) []kv { return s.data.Load(t) }

func (s *mapShard) put(t *sched.Thread, k, v int) {
	d := s.data.Load(t)
	for i, e := range d {
		if e.k == k {
			nd := append([]kv(nil), d...)
			nd[i].v = v
			s.data.Store(t, nd)
			return
		}
	}
	s.data.Store(t, append(append([]kv(nil), d...), kv{k, v}))
}

func (s *mapShard) del(t *sched.Thread, k int) bool {
	d := s.data.Load(t)
	for i, e := range d {
		if e.k == k {
			nd := append(append([]kv(nil), d[:i]...), d[i+1:]...)
			s.data.Store(t, nd)
			return true
		}
	}
	return false
}

// ShardedMap is a hash map striped across mapShards lock-protected shards
// (the shape of a sharded sync.Map replacement: per-shard mutex plus a
// copy-on-write bucket slice). Single-key operations lock one shard and are
// trivially linearizable; the whole-map Len locks all shards in ascending
// order and counts under the combined critical section, so it observes a
// consistent instant.
type ShardedMap struct {
	shards [mapShards]*mapShard
}

// NewShardedMap constructs an empty map.
func NewShardedMap(t *sched.Thread) *ShardedMap {
	m := &ShardedMap{}
	for i := range m.shards {
		m.shards[i] = newMapShard(t, "ShardedMap.shard"+string(rune('0'+i)))
	}
	return m
}

func (m *ShardedMap) shard(k int) *mapShard {
	if k < 0 {
		k = -k
	}
	return m.shards[k%mapShards]
}

// Put stores v under k.
func (m *ShardedMap) Put(t *sched.Thread, k, v int) {
	s := m.shard(k)
	s.mu.Lock(t)
	s.put(t, k, v)
	s.mu.Unlock(t)
}

// Get returns the value stored under k.
func (m *ShardedMap) Get(t *sched.Thread, k int) (v int, ok bool) {
	s := m.shard(k)
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	for _, e := range s.get(t) {
		if e.k == k {
			return e.v, true
		}
	}
	return 0, false
}

// Delete removes k, reporting whether it was present.
func (m *ShardedMap) Delete(t *sched.Thread, k int) bool {
	s := m.shard(k)
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	return s.del(t, k)
}

// Len counts all entries under every shard lock at once (linearizable).
func (m *ShardedMap) Len(t *sched.Thread) int {
	for _, s := range m.shards {
		s.mu.Lock(t)
	}
	n := 0
	for _, s := range m.shards {
		n += len(s.get(t))
	}
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock(t)
	}
	return n
}

// ShardedMapPre seeds a cross-shard counting defect: instead of counting
// under the shard locks, the map maintains a global size with a racy
// load-then-store update outside any lock. Two concurrent Puts on different
// shards can both read size=0 and both write size=1, losing an increment —
// afterwards Len answers 1 with two entries present, with no serial witness.
// Serially the counter is exact, so phase 1 synthesizes the correct spec.
type ShardedMapPre struct {
	ShardedMap
	size *vsync.AtomicInt
}

// NewShardedMapPre constructs the defect-seeded variant.
func NewShardedMapPre(t *sched.Thread) *ShardedMapPre {
	m := &ShardedMapPre{size: vsync.NewAtomicInt(t, "ShardedMap.size", 0)}
	for i := range m.shards {
		m.shards[i] = newMapShard(t, "ShardedMap.shard"+string(rune('0'+i)))
	}
	return m
}

// Put stores v under k and bumps the global size — with the seeded bug: the
// bump is an unsynchronized read-modify-write.
func (m *ShardedMapPre) Put(t *sched.Thread, k, v int) {
	s := m.shard(k)
	s.mu.Lock(t)
	fresh := true
	for _, e := range s.get(t) {
		if e.k == k {
			fresh = false
			break
		}
	}
	s.put(t, k, v)
	s.mu.Unlock(t)
	if fresh {
		sz := m.size.Load(t)
		m.size.Store(t, sz+1) // BUG: lost update; must be Add(t, 1)
	}
}

// Delete removes k and decrements the global size (same racy pattern; the
// Put race alone already suffices to convict the subject).
func (m *ShardedMapPre) Delete(t *sched.Thread, k int) bool {
	s := m.shard(k)
	s.mu.Lock(t)
	ok := s.del(t, k)
	s.mu.Unlock(t)
	if ok {
		sz := m.size.Load(t)
		m.size.Store(t, sz-1) // BUG: lost update; must be Add(t, -1)
	}
	return ok
}

// Len answers from the global counter.
func (m *ShardedMapPre) Len(t *sched.Thread) int {
	return m.size.Load(t)
}
