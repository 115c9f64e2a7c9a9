package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lineup/internal/telemetry"
)

// recruitAfter is the number of executions an exploration runs alone, on its
// caller's goroutine, before ExploreParallel starts its helpers: a check that
// fails within its first schedules, or whose whole space is that small, never
// pays for a goroutine, a second program instance or a split. It is a
// variable only so that tests can force every exploration to split.
var recruitAfter = 16

// helperSpin is how long a starving worker yields before it parks: a few
// executions of a small check, time for a busy worker to split for it.
const helperSpin = 10 * time.Microsecond

// Pos identifies one execution's position in the sequential depth-first
// exploration order: the branch index taken at each decision level of the
// schedule tree at the moment the execution was started (levels reached
// during the run extend the path with the default branch 0); a decision that
// cannot branch (no choice left in the preemption budget, or every
// affordable branch asleep) is no level. Positions are
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

// shard is one unit of parallel work: a WorkUnit — the schedule prefix its
// executions start from, the levels below Floor pinned — and what exploring
// it counted. A shard is handed over and started exactly like a unit of
// SplitUnits, by replaying its path. Its executions are an interval of the
// sequential order that starts at unit.Path, and a split cuts the interval
// in two: the donor keeps the earlier part and raises its floor. The
// statistics of a sequential run that stopped at position T are the sum over
// the shards that start at or before T (see coordinator.result).
type shard struct {
	unit  WorkUnit
	stats ExploreStats
}

// split carves a new shard out of this one for a starving worker: the
// shallowest unpinned level with an affordable unexplored alternative is
// handed off (that alternative and everything after it at that level), and
// the level becomes pinned in the parent. It returns nil when the shard has
// no splittable level. e is the worker's explorer holding the live stack.
func (sh *shard) split(e *explorer) *shard {
	level := -1
	for i := sh.unit.Floor; i < len(e.stack); i++ {
		c := e.stack[i]
		if !c.footSet && e.records(c) {
			// The deepest level's branch may not have run yet (advanceAbove
			// just moved to it); only the donor will record its footprint,
			// so the child could not retire it (unbounded sleep sets only).
			continue
		}
		for j := c.next + 1; j < len(c.enabled); j++ {
			if e.allowed(c, j) && !asleep(c.sleep, c.enabled[j]) {
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
	// The child keeps the donor's old floor: the levels in [Floor, level)
	// have no affordable non-sleeping branch left (that is why the split chose
	// a deeper level), so the child never branches there, and when its last
	// descendant backtracks through them it skips and counts their trailing
	// sleeping branches exactly when a sequential pop would.
	child := &shard{unit: e.unitOf(e.stack[:level+1], sh.unit.Floor)}
	// The child continues exactly where a sequential advance at this level
	// would: the donor's current branch is retired into the child's records
	// (the donor will finish its subtree, and a branch that retiring records
	// has run, so its window footprint is final), and the sleeping branches
	// between the two are skipped. A sequential run counts them after the
	// donor's last execution and before the child's first, so they are the
	// child's to report.
	c := e.stack[level]
	if e.records(c) {
		child.unit.Explored[level] = append(child.unit.Explored[level], recordOf(c.enabled[c.next], &c.foot))
	}
	next := c.next + 1
	for !e.allowed(c, next) || asleep(c.sleep, c.enabled[next]) {
		if e.allowed(c, next) {
			child.stats.Pruned++
		}
		next++
	}
	child.unit.Path[level] = next
	e.tel.Add(telemetry.SchedulesPruned, int64(child.stats.Pruned))
	sh.unit.Floor = level + 1
	return child
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
// shard queue, the execution budget, every shard's statistics, and the
// terminal-event bookkeeping that makes early cancellation deterministic. A
// lone DFS is a coordinator whose only shard is the root.
type coordinator struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*shard
	shards  []*shard // every shard ever pushed, the root first
	waiters int      // workers blocked in pop (the split-hunger signal)
	pending int      // shards queued or being worked
	killed  bool     // budget exhausted or a worker panicked: stop everything
	// splitWanted tells a worker holding a large shard to shed part of it:
	// the queue is dry and a worker idles. hungry stores it under mu, and
	// every worker reads it before every execution without the lock.
	splitWanted atomic.Bool
	maxExecs    int
	execs       int // executions started, all shards
	// recruit, when non-nil, starts the helpers; the worker whose reservation
	// brings execs to recruitAfter calls it.
	recruit func()
	// fault is the first panic a helper died of, for the caller to re-raise.
	fault any

	// terminated is set once exploration terminally stopped, and termPos is
	// the minimal position at which it did: a visit returned false (termErr
	// nil) or an execution failed (termErr non-nil). Work at positions after
	// termPos is abandoned; work before it continues, so the minimum is exact
	// and the reported stop cause is the one a sequential DFS hits first.
	terminated bool
	termPos    Pos
	termErr    error

	truncated bool
	tel       *telemetry.Collector // counts the shards
}

func newCoordinator(cfg ExploreConfig) *coordinator {
	co := &coordinator{maxExecs: cfg.MaxExecutions, tel: cfg.Telemetry}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// result is the exploration's outcome once every explorer has finished: the
// sequentially-first terminal event wins (nil error for a visit stop), then
// budget exhaustion. After a terminal event at T the statistics are those of
// the sequential run that stops there. Shards are disjoint intervals of the
// sequential order, each explored in increasing order: one that starts after
// T holds only work the sequential run never reached and is left out; one
// that ends before T ran to completion (only work after T is abandoned); and
// the one containing T stopped counting when its worker noted T.
func (co *coordinator) result() (ExploreStats, error) {
	var stats ExploreStats
	for _, sh := range co.shards {
		if co.terminated && co.termPos.Before(sh.unit.Path) {
			continue
		}
		stats.add(sh.stats)
	}
	switch {
	case co.terminated:
		return stats, co.termErr
	case co.truncated:
		stats.Truncated = true
		return stats, ErrBudget
	}
	return stats, nil
}

func (co *coordinator) push(sh *shard) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.shards) > 0 {
		co.tel.Add(telemetry.ShardSplits, 1)
	}
	co.shards = append(co.shards, sh)
	co.queue = append(co.queue, sh)
	co.pending++
	co.hungry()
	co.tel.Add(telemetry.Shards, 1)
	co.cond.Signal()
}

// hungry publishes splitWanted; it is called with mu held after every
// change of queue, waiters, pending or killed.
func (co *coordinator) hungry() {
	co.splitWanted.Store(!co.killed && len(co.queue) == 0 && co.waiters > 0 && co.pending > 0)
}

// pop blocks until a shard is available; it returns nil when the exploration
// is over (no shard queued or being worked, or killed).
func (co *coordinator) pop() *shard {
	co.mu.Lock()
	defer co.mu.Unlock()
	for spin := true; ; spin = false {
		if co.killed {
			return nil
		}
		if len(co.queue) > 0 {
			sh := co.queue[0]
			co.queue = co.queue[1:]
			co.hungry()
			return sh
		}
		if co.pending == 0 {
			return nil
		}
		co.waiters++
		co.hungry()
		if spin {
			co.mu.Unlock()
			for start := time.Now(); co.splitWanted.Load() && time.Since(start) < helperSpin; {
				runtime.Gosched()
			}
			co.mu.Lock()
		} else {
			co.cond.Wait()
		}
		co.waiters--
		co.hungry()
	}
}

// finishShard retires sh, crediting it with what its explorer counted on it.
func (co *coordinator) finishShard(sh *shard, counted ExploreStats) {
	co.mu.Lock()
	defer co.mu.Unlock()
	sh.stats.add(counted)
	co.pending--
	co.hungry()
	co.tel.Add(telemetry.ShardsDone, 1)
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
	ok := co.admit(p)
	recruit := ok && co.execs == recruitAfter && co.recruit != nil
	co.mu.Unlock()
	if recruit {
		// Only the lone DFS can get here (execs passes the mark once), so the
		// helpers start on the caller's goroutine, outside the lock.
		co.recruit()
	}
	return ok
}

func (co *coordinator) admit(p Pos) bool {
	if co.killed || (co.terminated && co.termPos.Before(p)) {
		return false
	}
	if co.maxExecs > 0 && co.execs >= co.maxExecs {
		co.truncated = true
		co.killed = true
		co.hungry()
		co.cond.Broadcast()
		return false
	}
	co.execs++
	return true
}

// kill stops every worker at its next reservation or pop.
func (co *coordinator) kill() {
	co.mu.Lock()
	co.killed = true
	co.hungry()
	co.cond.Broadcast()
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

// work drains the shard queue, exploring each shard below its pinned prefix
// with a private program instance (executions of one worker are sequential,
// so the program's closure state needs no synchronization).
func (co *coordinator) work(e *explorer, prog Program, visit func(*Outcome, Pos) bool) {
	defer e.finish()
	for sh := co.pop(); sh != nil; sh = co.pop() {
		if !co.abandoned(sh.unit.Path) {
			e.explore(prog, sh, visit)
		}
		co.finishShard(sh, e.take())
	}
}

// help is a helper's goroutine: work, with a panic (a controller fault
// re-raised by Scheduler.Run, or a panicking visit) carried to the caller of
// ExploreParallel instead of ending the process.
func (co *coordinator) help(e *explorer, prog Program, visit func(*Outcome, Pos) bool) {
	defer func() {
		if r := recover(); r != nil {
			co.mu.Lock()
			if co.fault == nil {
				co.fault = r
			}
			co.mu.Unlock()
			co.kill()
		}
	}()
	co.work(e, prog, visit)
}

// ExploreParallel enumerates the schedules of a program exactly like Explore,
// on up to workers goroutines, the caller's included (0 or negative selects
// GOMAXPROCS). It starts as Explore does — a lone DFS of the whole tree on
// the caller's goroutine — and an exploration that ends within recruitAfter
// executions is nothing else. Past that mark it starts the other workers,
// which get work only by stealing: a worker with nothing to do makes a busy
// one split its shard at the shallowest unexplored level. Shards are disjoint
// intervals of the sequential order, so the multiset of outcomes visited and
// — after a full exploration or an early stop alike — the returned
// statistics are the sequential explorer's, whatever the worker count and
// wherever the timing-driven splits landed. cfg.Telemetry counts the shards
// created, retired and split off.
//
// newProg is called once per worker so that concurrently executing program
// instances do not share closure state; each instance must behave
// deterministically and identically, as in Explore.
//
// visit may be called concurrently from several workers; callers that
// accumulate state must synchronize. Every outcome carries its Pos in the
// sequential exploration order; like the Pos, the outcome is valid only
// during the visit (keep its Clone). When a visit returns false, exploration is
// canceled deterministically: work strictly after that position (in
// sequential order) is abandoned, while earlier work runs to completion, so
// the minimal stopping position — and hence the caller's min-position
// selection among concurrently discovered violations — is exact. Outcomes at
// positions between the eventual stop and in-flight work may still be
// visited; callers must tolerate the superset (the statistics do not count
// them).
//
// Error semantics follow Explore with the same positional rule: the returned
// error is the sequentially-first execution failure, unless a visit stop
// precedes it (then nil, as the sequential explorer would have stopped
// first). ErrBudget is returned when MaxExecutions exhausts before the space;
// exactly MaxExecutions executions are run, though — unlike the sequential
// explorer — not necessarily the first ones in sequential order.
//
// Goroutine-leak detection counts the goroutines of the whole process, so an
// exploration that asks for it (cfg.DetectLeaks) stays on one goroutine.
func ExploreParallel(cfg ExploreConfig, workers int, newProg func() Program, visit func(*Outcome, Pos) bool) (ExploreStats, error) {
	return explorePool(cfg, workers, WorkUnit{}, newProg, visit)
}

// explorePool explores u's subtree: worker 0, on the caller's goroutine,
// starts on the whole of it and recruits the helpers.
func explorePool(cfg ExploreConfig, workers int, u WorkUnit, newProg func() Program, visit func(*Outcome, Pos) bool) (ExploreStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	co := newCoordinator(cfg)
	var wg sync.WaitGroup
	if workers > 1 && !cfg.DetectLeaks {
		co.recruit = func() {
			for i := 1; i < workers; i++ {
				e, prog := newExplorer(cfg, co), newProg()
				wg.Add(1)
				go func() {
					defer wg.Done()
					co.help(e, prog, visit)
				}()
			}
			// A helper's first pop registers it as a waiter, which makes this
			// worker split. Executions never yield the processor (a thread
			// switch is a coroutine switch), so yield once: with fewer
			// processors than workers the helpers would otherwise first run
			// at a preemption, long after that split.
			runtime.Gosched()
		}
	}
	e := newExplorer(cfg, co)
	co.push(&shard{unit: u})
	func() {
		// Reached early only when a panic unwinds worker 0: the helpers must
		// have stopped before it reaches the caller.
		defer wg.Wait()
		defer co.kill()
		co.work(e, newProg(), visit)
	}()
	// Every worker has joined; what a kill left queued is retired unexplored.
	co.tel.Add(telemetry.ShardsDone, int64(co.pending))
	if co.fault != nil {
		panic(co.fault)
	}
	return co.result()
}
