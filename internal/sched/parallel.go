package sched

import (
	"runtime"
	"sync"
)

// DefaultShardDepth is the number of decision levels the shard generator
// pre-splits when ParallelConfig.ShardDepth is zero. Two levels give roughly
// (enabled threads)^2 initial shards, which combined with work-stealing
// splits keeps every worker busy without fragmenting tiny schedule spaces.
const DefaultShardDepth = 2

// Pos identifies one execution's position in the sequential depth-first
// exploration order: the branch index taken at each decision level of the
// schedule tree at the moment the execution was started (levels reached
// during the run extend the path with the default branch 0). Positions are
// totally ordered by Before, and the order is exactly the order in which the
// sequential Explore would have visited the executions — regardless of how
// the parallel explorer sharded the tree. Callers use positions to
// re-establish the sequential "first" among concurrently discovered events,
// which is what makes parallel verdicts reproducible.
//
// The Pos handed to a visit callback may alias a buffer the explorer reuses:
// it is valid only during the call, and a visitor that retains it must copy.
type Pos []int

// Before reports whether p precedes q in sequential exploration order
// (lexicographic order of branch paths; a proper prefix precedes its
// extensions). Two distinct executions of the same exploration never have
// equal positions.
func (p Pos) Before(q Pos) bool {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// Clone returns a copy of p that stays valid after the visit it was handed
// to. The copy is never nil, so a retainer can tell "no position yet" from
// the empty position of an exploration's very first execution.
func (p Pos) Clone() Pos {
	return append(make(Pos, 0, len(p)), p...)
}

// ShardProgress is a snapshot of a parallel exploration's progress, delivered
// to ParallelConfig.Progress.
type ShardProgress struct {
	// Shards is the number of shards created so far (generator prefixes plus
	// work-stealing splits).
	Shards int
	// Done is the number of shards fully explored or abandoned.
	Done int
	// Splits is the number of shards created by splitting an oversized shard
	// for a starving worker.
	Splits int
	// Executions is the number of executions started so far.
	Executions int
}

// ParallelConfig parameterizes ExploreParallel.
type ParallelConfig struct {
	// Workers is the number of concurrent shard workers; 0 or negative
	// selects GOMAXPROCS.
	Workers int
	// ShardDepth is the number of decision levels the generator pre-splits
	// into shards (0 selects DefaultShardDepth). Deeper sharding yields more,
	// smaller shards; work-stealing splits compensate for skew either way.
	ShardDepth int
	// Progress, when non-nil, receives a progress snapshot whenever a shard
	// is created or retired. It is invoked under an internal lock and must
	// return quickly without calling back into the explorer.
	Progress func(ShardProgress)
}

// shard is one unit of parallel work: a decision stack whose levels below
// floor are pinned (the shard's schedule prefix) and whose levels at or above
// floor are a live DFS frontier. out, when non-nil, is the outcome of the
// stack's leftmost execution, already produced by the generator so the worker
// visits it without re-executing. path is the position of the shard's next
// (or pre-run) execution.
type shard struct {
	stack []*choice
	floor int
	out   *Outcome
	path  Pos
}

// split carves a new shard out of this one for a starving worker: the
// shallowest unpinned level with an affordable unexplored alternative is
// handed off (that alternative and everything after it at that level), and
// the level becomes pinned in the parent. It returns nil when the shard has
// no splittable level. e is the worker's explorer holding the live stack.
func (sh *shard) split(e *explorer) *shard {
	level := -1
	for i := sh.floor; i < len(e.stack); i++ {
		c := e.stack[i]
		if c.exhausted {
			continue
		}
		for j := c.next + 1; j < len(c.enabled); j++ {
			if e.allowed(c, j) && !(e.red == ReductionSleep && e.sleeps(c, j)) {
				level = i
				break
			}
		}
		if level >= 0 {
			break
		}
	}
	if level < 0 {
		return nil
	}
	// Raising the donor's floor past [sh.floor, level) orphans those levels:
	// the donor never advances them again and the child only advances its own
	// floor level, so their trailing sleeping branches — which a sequential
	// pop would skip and count — must be counted here or the merged Pruned
	// total silently depends on where the timing-driven splits landed. Each
	// such level has no affordable non-sleeping branch left (that is why the
	// split chose a deeper level), so the remainder is exactly what a pop
	// would prune.
	if e.red == ReductionSleep {
		for i := sh.floor; i < level; i++ {
			c := e.stack[i]
			if c.exhausted {
				continue
			}
			for j := c.next + 1; j < len(c.enabled); j++ {
				if e.allowed(c, j) && e.sleeps(c, j) {
					e.pruned++
				}
			}
		}
	}
	st := cloneStack(e.stack[:level+1])
	c := st[level]
	// The handed-off child continues exactly where a sequential advance at
	// this level would: the donor's current branch is retired into the
	// child's node (the donor will finish its subtree, and every live stack
	// level has already run an execution, so its window footprint is final),
	// and sleeping branches between the two are skipped and counted here —
	// the donor's floor pin means no one else ever advances this level.
	e.retire(c)
	c.next++
	for !e.allowed(c, c.next) || (e.red == ReductionSleep && e.sleeps(c, c.next)) {
		if e.allowed(c, c.next) {
			e.pruned++
		}
		c.next++
	}
	sh.floor = level + 1
	return &shard{stack: st, floor: level, path: pathOf(st)}
}

// cloneStack deep-copies the choice structs of a decision stack so that two
// explorers can advance the same prefix independently. The sleep slice is
// shared (never mutated after creation) and footprints are immutable once
// recorded; enabled and explored are buffers their node owns and whichever
// explorer pops the node recycles, so they are copied.
func cloneStack(stack []*choice) []*choice {
	out := make([]*choice, len(stack))
	for i, c := range stack {
		cc := *c
		cc.enabled = append([]ThreadID(nil), c.enabled...)
		cc.explored = append([]sleepEntry(nil), c.explored...)
		out[i] = &cc
	}
	return out
}

// appendPath appends the branch index of every level of stack to dst.
func appendPath(dst Pos, stack []*choice) Pos {
	for _, c := range stack {
		dst = append(dst, c.next)
	}
	return dst
}

func pathOf(stack []*choice) Pos {
	return appendPath(make(Pos, 0, len(stack)), stack)
}

// coordinator is the shared state of one exploration, lone or pooled: the
// shard queue, the execution budget, merged statistics, and the
// terminal-event bookkeeping that makes early cancellation deterministic. A
// lone DFS is a coordinator whose queue stays empty.
type coordinator struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*shard
	waiters  int // workers blocked in pop (the split-hunger signal)
	pending  int // shards queued or being worked
	genDone  bool
	killed   bool // budget exhausted: stop everything immediately
	maxExecs int

	// terminated is set once exploration terminally stopped, and termPos is
	// the minimal position at which it did: a visit returned false (termErr
	// nil) or an execution failed (termErr non-nil). Work at positions after
	// termPos is abandoned; work before it continues, so the minimum is exact
	// and the reported stop cause is the one a sequential DFS hits first.
	terminated bool
	termPos    Pos
	termErr    error

	truncated bool
	stats     ExploreStats
	prog      ShardProgress
	progFn    func(ShardProgress)
}

func newCoordinator(maxExecs int, progress func(ShardProgress)) *coordinator {
	co := &coordinator{maxExecs: maxExecs, progFn: progress}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// result is the exploration's outcome once every explorer has finished: the
// sequentially-first terminal event wins (nil error for a visit stop), then
// budget exhaustion.
func (co *coordinator) result() (ExploreStats, error) {
	stats := co.stats
	switch {
	case co.terminated:
		return stats, co.termErr
	case co.truncated:
		stats.Truncated = true
		return stats, ErrBudget
	}
	return stats, nil
}

func (co *coordinator) emitProgress() {
	if co.progFn != nil {
		co.prog.Executions = co.stats.Executions
		co.progFn(co.prog)
	}
}

// finalProgress delivers the closing progress snapshot — complete merged
// totals — exactly once, after every worker has joined, and then seals the
// callback so nothing can emit after ExploreParallel returns. Shard-event
// emissions are interleaved with execution reservations, so without this the
// last event-driven snapshot can under-report the totals.
func (co *coordinator) finalProgress() {
	co.mu.Lock()
	defer co.mu.Unlock()
	fn := co.progFn
	if fn == nil {
		return
	}
	co.progFn = nil
	co.prog.Executions = co.stats.Executions
	fn(co.prog)
}

func (co *coordinator) push(sh *shard) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.queue = append(co.queue, sh)
	co.pending++
	co.prog.Shards++
	if sh.out == nil {
		co.prog.Splits++
	}
	co.emitProgress()
	co.cond.Signal()
}

// pop blocks until a shard is available; it returns nil when the exploration
// is over (queue drained with the generator finished, or killed).
func (co *coordinator) pop() *shard {
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if co.killed {
			return nil
		}
		if len(co.queue) > 0 {
			sh := co.queue[0]
			co.queue = co.queue[1:]
			return sh
		}
		if co.genDone && co.pending == 0 {
			return nil
		}
		co.waiters++
		co.cond.Wait()
		co.waiters--
	}
}

func (co *coordinator) finishShard() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.pending--
	co.prog.Done++
	co.emitProgress()
	if co.pending == 0 {
		co.cond.Broadcast()
	}
}

// reserve accounts one execution about to start at position p. It returns
// false when the execution must not run: the exploration was killed, a
// terminal event precedes p (everything at and after p is moot), or the
// execution budget is exhausted (which kills the exploration).
func (co *coordinator) reserve(p Pos) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.killed {
		return false
	}
	if co.terminated && co.termPos.Before(p) {
		return false
	}
	if co.maxExecs > 0 && co.stats.Executions >= co.maxExecs {
		co.truncated = true
		co.killed = true
		co.cond.Broadcast()
		return false
	}
	co.stats.Executions++
	return true
}

// merge adds one finished explorer's share of the statistics.
func (co *coordinator) merge(pruned, decisions int) {
	co.mu.Lock()
	co.stats.Pruned += pruned
	co.stats.Decisions += decisions
	co.mu.Unlock()
}

// noteTerminal records a terminal event (visit stop when err is nil, failed
// execution otherwise) at position p, keeping the minimal-position one.
func (co *coordinator) noteTerminal(p Pos, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.terminated || p.Before(co.termPos) {
		co.terminated = true
		co.termPos = append(co.termPos[:0], p...)
		co.termErr = err
	}
}

func (co *coordinator) abandoned(p Pos) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.killed || (co.terminated && co.termPos.Before(p))
}

// splitWanted reports whether a worker holding a large shard should shed part
// of it: the queue is dry and at least one worker is idle.
func (co *coordinator) splitWanted() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return !co.killed && len(co.queue) == 0 && co.waiters > 0
}

// work drains the shard queue, exploring each shard below its pinned prefix
// with a private program instance (executions of one worker are sequential,
// so the program's closure state needs no synchronization).
func (co *coordinator) work(e *explorer, prog Program, visit func(*Outcome, Pos) bool) {
	defer e.finish()
	for sh := co.pop(); sh != nil; sh = co.pop() {
		if !co.abandoned(sh.path) {
			e.explore(prog, sh, visit)
		}
		co.finishShard()
	}
}

// ExploreParallel enumerates the schedules of a program exactly like Explore,
// but across a pool of workers: the first ShardDepth decision levels of the
// schedule tree are split into disjoint prefix shards, each shard is the
// prefix's entire subtree explored depth-first by one worker at a time, and
// starving workers steal by splitting oversized shards at their shallowest
// unexplored level. Over a full exploration the multiset of outcomes visited
// is identical to the sequential explorer's, and the merged statistics are
// deterministic regardless of worker count.
//
// newProg is called once per worker (plus once for the generator) so that
// concurrently executing program instances do not share closure state; each
// instance must behave deterministically and identically, as in Explore.
//
// visit may be called concurrently from several workers; callers that
// accumulate state must synchronize. Every outcome carries its Pos in the
// sequential exploration order. When a visit returns false, exploration is
// canceled deterministically: work strictly after that position (in
// sequential order) is abandoned, while earlier work runs to completion, so
// the minimal stopping position — and hence the caller's min-position
// selection among concurrently discovered violations — is exact. Outcomes at
// positions between the eventual stop and in-flight work may still be
// visited; callers must tolerate the superset.
//
// Error semantics follow Explore with the same positional rule: the returned
// error is the sequentially-first execution failure, unless a visit stop
// precedes it (then nil, as the sequential explorer would have stopped
// first). ErrBudget is returned when MaxExecutions exhausts before the space;
// exactly MaxExecutions executions are run, though — unlike the sequential
// explorer — not necessarily the first ones in sequential order.
func ExploreParallel(cfg ExploreConfig, pcfg ParallelConfig, newProg func() Program, visit func(*Outcome, Pos) bool) (ExploreStats, error) {
	// Goroutine-count leak detection is process-global and meaningless while
	// several schedulers run concurrently; containment of hangs and panics
	// still works per execution.
	cfg.DetectLeaks = false
	workers := pcfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := pcfg.ShardDepth
	if depth <= 0 {
		depth = DefaultShardDepth
	}
	co := newCoordinator(cfg.MaxExecutions, pcfg.Progress)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		e, prog := newExplorer(cfg, co), newProg()
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.work(e, prog, visit)
		}()
	}
	gen := newExplorer(cfg, co)
	gen.generate(newProg(), depth, func(out *Outcome, p Pos, floor int) {
		co.push(&shard{stack: cloneStack(gen.stack), floor: floor, out: out, path: p.Clone()})
	})
	co.mu.Lock()
	co.genDone = true
	co.cond.Broadcast()
	co.mu.Unlock()
	wg.Wait()
	co.finalProgress()
	return co.result()
}
