package lineup_test

import (
	"fmt"

	"lineup"
	"lineup/internal/vsync"
)

// shardedCounter splits its count across two shards to reduce contention,
// but keeps a cached total that is "refreshed" with an unlocked
// read-modify-write.
type shardedCounter struct {
	shards [2]*vsync.AtomicInt
	total  *vsync.AtomicInt
}

func newShardedCounter(t *lineup.Thread) *shardedCounter {
	c := &shardedCounter{total: vsync.NewAtomicInt(t, "ShardedCounter.total", 0)}
	for i := range c.shards {
		c.shards[i] = vsync.NewAtomicInt(t, fmt.Sprintf("ShardedCounter.shard%d", i), 0)
	}
	return c
}

// Add increments one shard — and then bumps the cached total with a racy
// load-then-store instead of an atomic add.
func (c *shardedCounter) Add(t *lineup.Thread, shard int) {
	c.shards[shard%2].Add(t, 1)
	cached := c.total.Load(t) // BUG: lost update — should be c.total.Add(t, 1)
	c.total.Store(t, cached+1)
}

// Total returns the cached sum.
func (c *shardedCounter) Total(t *lineup.Thread) int {
	return c.total.Load(t)
}

// Example_generate finds a seeded bug with coverage-guided test generation.
//
// Instead of sampling random test matrices, Generate grows a corpus:
// starting from the smallest pairwise tests it mutates corpus entries and
// keeps every mutant whose check touches new memory locations or produces
// new concurrent histories, until a violation falls out. The run is fully
// reproducible — same seed, same corpus, same violation.
func Example_generate() {
	add := func(shard int) lineup.Op {
		return lineup.Op{Method: "Add", Args: fmt.Sprint(shard), Run: func(t *lineup.Thread, obj any) string {
			obj.(*shardedCounter).Add(t, shard)
			return "ok"
		}}
	}
	total := lineup.Op{Method: "Total", Run: func(t *lineup.Thread, obj any) string {
		return fmt.Sprint(obj.(*shardedCounter).Total(t))
	}}
	sub := &lineup.Subject{
		Name: "ShardedCounter",
		New:  func(t *lineup.Thread) any { return newShardedCounter(t) },
		Ops:  []lineup.Op{add(0), add(1), total},
	}

	res, err := lineup.Generate(sub, lineup.GenOptions{Seed: 1, Budget: 300})
	if err != nil {
		panic(err)
	}
	fmt.Printf("generated %d tests (seed=%d): %d accepted into the corpus\n", res.Tests, res.Seed, res.Accepted)
	fmt.Printf("coverage: %d (kind,loc) pairs, %d distinct concurrent histories\n", res.CoveragePairs, res.CoverageHists)
	fmt.Printf("violation at test %d:\n", res.TestsToFailure)
	printLines(res.Failed.Test.String())
	fmt.Println(res.Failed.Violation.Kind)
	fmt.Print(res.Failed.Violation.History)
	// Output:
	// generated 10 tests (seed=1): 0 accepted into the corpus
	// coverage: 4 (kind,loc) pairs, 39 distinct concurrent histories
	// violation at test 10:
	// Thread A      Thread B      Thread C
	// Total()       Total()       Add(1)
	// Add(0)        Add(1)        Total()
	// Total()       Add(0)        Add(1)
	// concurrent history with no serial witness
	// (call Total() T0)
	// (ret Total()=0 T0)
	// (call Add(0) T0)
	// (ret Add(0)=ok T0)
	// (call Total() T0)
	// (ret Total()=1 T0)
	// (call Total() T1)
	// (ret Total()=1 T1)
	// (call Add(1) T1)
	// (ret Add(1)=ok T1)
	// (call Add(0) T1)
	// (call Add(1) T2)
	// (ret Add(1)=ok T2)
	// (ret Add(0)=ok T1)
	// (call Total() T2)
	// (ret Total()=3 T2)
	// (call Add(1) T2)
	// (ret Add(1)=ok T2)
}
