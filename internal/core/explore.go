package core

import (
	"sync"

	"lineup/internal/sched"
)

// ForEachExecution explores the concurrent schedules of a test and hands
// every execution outcome (with its shared-memory trace, if requested) to
// visit. It is the hook used by the race-detection and atomicity-checking
// comparisons of Section 5.6, which analyze the same executions Line-Up's
// phase 2 explores. With Options.Workers > 1 the executions are produced by
// the prefix-sharded parallel explorer — the same multiset of outcomes in a
// different order — and visit calls are serialized under an internal lock,
// so existing single-threaded visitors stay correct.
func ForEachExecution(sub *Subject, m *Test, opts Options, recordTrace bool, visit func(*sched.Outcome) bool) (sched.ExploreStats, error) {
	cfg := opts.exploreConfig(false, recordTrace)
	if opts.Workers > 1 {
		var mu sync.Mutex
		return sched.ExploreParallel(cfg, sched.ParallelConfig{
			Workers:  opts.Workers,
			Progress: opts.ShardProgress,
		}, func() sched.Program {
			var holder any
			return program(sub, m, &holder)
		}, func(out *sched.Outcome, _ sched.Pos) bool {
			mu.Lock()
			defer mu.Unlock()
			return visit(out)
		})
	}
	var holder any
	return sched.Explore(cfg, program(sub, m, &holder), visit)
}

// ForEachSerialExecution is the serial-mode sibling of ForEachExecution.
func ForEachSerialExecution(sub *Subject, m *Test, opts Options, recordTrace bool, visit func(*sched.Outcome) bool) (sched.ExploreStats, error) {
	var holder any
	return sched.Explore(opts.exploreConfig(true, recordTrace), program(sub, m, &holder), visit)
}
