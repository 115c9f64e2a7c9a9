package sched

import "time"

// PickRecord is one Controller.Pick call of an explored execution: its
// arguments, with the enabled set in the explorer's branch order (cur first
// when enabled, then ascending — a bijection with the ascending set Pick
// receives), and the thread it returned.
type PickRecord struct {
	Cur        ThreadID
	CurEnabled bool
	Enabled    []ThreadID
	Pick       ThreadID
}

// ExploreTraced is Explore that also hands visit the Pick calls of each
// execution, decisions that cannot branch included: the explorer reports
// every decision to a hook as it takes it (which keeps the scheduler from
// taking those without asking), with the enabled threads in branch order,
// and every replayed node panics unless Pick receives the same arguments
// again. The records are valid during the call.
func ExploreTraced(cfg ExploreConfig, prog Program, visit func(*Outcome, []PickRecord) bool) (ExploreStats, error) {
	co := newCoordinator(cfg)
	e := newExplorer(cfg, co)
	var recs []PickRecord
	e.onPick = func(cur ThreadID, curEnabled bool, enabled []ThreadID, pick ThreadID) {
		recs = append(recs, PickRecord{Cur: cur, CurEnabled: curEnabled, Enabled: orderChoices(nil, cur, curEnabled, enabled), Pick: pick})
	}
	co.push(&shard{})
	co.work(e, prog, func(out *Outcome, _ Pos) bool {
		defer func() { recs = recs[:0] }()
		return visit(out, recs)
	})
	return co.result()
}

// KeepForcedNodes makes every decision with no choice a node, as it was
// before they were skipped, until the returned function is called; a
// decision whose every affordable branch is asleep stays no node.
func KeepForcedNodes() (restore func()) {
	forcedNodes = true
	return func() { forcedNodes = false }
}

// RecruitAfter is ExploreParallel's recruiting mark.
func RecruitAfter() int { return recruitAfter }

// SetRecruitAfter makes ExploreParallel start its helpers once n executions
// have started, until the returned function is called.
func SetRecruitAfter(n int) (restore func()) {
	old := recruitAfter
	recruitAfter = n
	return func() { recruitAfter = old }
}

// ExploreSplitEverywhere explores like ExploreParallel, but on the caller's
// goroutine and with a split forced before every execution that has one to
// give: a phantom starving worker on the coordinator's books makes every
// explorer shed its shallowest level whenever the queue is dry, and every visit
// empties the queue into a stash. At each visit of the explorer that holds the
// root, a second explorer works the stash off — it explores every shard shed so
// far to completion, each replayed on the nodes of the one before — before the
// first resumes through its pinned prefix. A child unit whose retired-branch
// records point into its donor's decision nodes instead of holding copies is
// therefore read after those nodes were recycled and overwritten, so the hook
// checks that a split's unit stands alone. It returns the number of splits
// with the stats.
func ExploreSplitEverywhere(cfg ExploreConfig, newProg func() Program, visit func(*Outcome, Pos) bool) (ExploreStats, int, error) {
	co := newCoordinator(cfg)
	co.waiters = 1
	root, thief := newExplorer(cfg, co), newExplorer(cfg, co)
	var stash []*shard
	unqueue := func() {
		stash, co.queue = append(stash, co.queue...), co.queue[:0]
		co.hungry()
	}
	stolen := newProg()
	drain := func() {
		for unqueue(); len(stash) > 0; unqueue() {
			sh := stash[len(stash)-1]
			stash = stash[:len(stash)-1]
			thief.explore(stolen, sh, func(out *Outcome, p Pos) bool {
				unqueue()
				return visit(out, p)
			})
			co.finishShard(sh, thief.take())
		}
	}
	whole := &shard{}
	co.push(whole)
	co.queue = co.queue[:0]
	co.hungry()
	root.explore(newProg(), whole, func(out *Outcome, p Pos) bool {
		drain()
		return visit(out, p)
	})
	co.finishShard(whole, root.take())
	drain()
	root.finish()
	thief.finish()
	stats, err := co.result()
	return stats, len(co.shards) - 1, err
}

// WithMaxOpSteps returns c with the per-operation step bound set to n in
// place of maxOpSteps (100 000).
func WithMaxOpSteps(c Config, n int) Config {
	c.opSteps = n
	return c
}

// WithAbandonGrace returns c with the wait for an abandoned execution's
// threads set to d in place of abandonGrace (50 ms).
func WithAbandonGrace(c Config, d time.Duration) Config {
	c.grace = d
	return c
}

// SplitUnitsEach is SplitUnits handing each unit to emit as soon as it is
// cut, while the generator still holds the stack the unit was read from.
func SplitUnitsEach(cfg ExploreConfig, prog Program, depth int, emit func(WorkUnit)) (SplitStats, error) {
	return splitUnits(cfg, prog, depth, emit)
}

// FootprintRecords explores prog on one explorer and returns what its
// decision nodes hold at the end, on the stack and in the free list: the
// retired-branch footprint records in their stores and the enabled threads
// they branch over.
func FootprintRecords(cfg ExploreConfig, prog Program) (records, enabled int, stats ExploreStats, err error) {
	co := newCoordinator(cfg)
	e := newExplorer(cfg, co)
	co.push(&shard{})
	co.work(e, prog, func(*Outcome, Pos) bool { return true })
	for _, nodes := range [][]*choice{e.stack, e.free} {
		for _, c := range nodes {
			records += c.store.n
			enabled += len(c.enabled)
		}
	}
	stats, err = co.result()
	return records, enabled, stats, err
}
