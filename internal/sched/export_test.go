package sched

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
// execution, read off the explorer's decision stack: a level is recorded
// from Pick's arguments when it is created, and every replay of it panics
// unless Pick receives the same arguments again, so the stack is the
// execution's Pick trace. The records alias the stack and are valid during
// the call.
func ExploreTraced(cfg ExploreConfig, prog Program, visit func(*Outcome, []PickRecord) bool) (ExploreStats, error) {
	co := newCoordinator(cfg)
	e := newExplorer(cfg, co)
	var recs []PickRecord
	co.push(&shard{})
	co.work(e, prog, func(out *Outcome, _ Pos) bool {
		recs = recs[:0]
		for _, c := range e.stack[:e.depth] {
			recs = append(recs, PickRecord{Cur: c.cur, CurEnabled: c.curEnabled, Enabled: c.enabled, Pick: c.enabled[c.next]})
		}
		return visit(out, recs)
	})
	return co.result()
}

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
// far to completion, recycling their nodes from one shard to the next — before
// the first resumes through its pinned prefix. A node left shared between a
// donor's stack and its child's is therefore overwritten while the donor still
// replays through it. It returns the number of splits with the stats.
func ExploreSplitEverywhere(cfg ExploreConfig, newProg func() Program, visit func(*Outcome, Pos) bool) (ExploreStats, int, error) {
	co := newCoordinator(cfg)
	co.waiters = 1
	root, thief := newExplorer(cfg, co), newExplorer(cfg, co)
	var stash []*shard
	unqueue := func() { stash, co.queue = append(stash, co.queue...), co.queue[:0] }
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
