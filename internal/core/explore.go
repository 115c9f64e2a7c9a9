package core

import (
	"sync"

	"lineup/internal/sched"
)

// explore is the one exhaustive exploration of a test's concurrent schedules:
// a lone DFS on the caller's goroutine that recruits up to
// exploreWorkers()-1 helpers once it is worth sharing. Each worker
// runs its own instance of the test program; visit may be called from several
// of them at once.
func (o Options) explore(sub *Subject, m *Test, cfg sched.ExploreConfig, visit func(*sched.Outcome, sched.Pos) bool) (sched.ExploreStats, error) {
	return sched.ExploreParallel(cfg, sched.ParallelConfig{
		Workers:  o.exploreWorkers(),
		Progress: o.ShardProgress,
	}, func() sched.Program {
		var holder any
		return program(sub, m, &holder)
	}, visit)
}

// ForEachExecution explores the concurrent schedules of a test and hands
// every execution outcome (with its shared-memory trace, if requested) to
// visit. It is the hook used by the race-detection and atomicity-checking
// comparisons of Section 5.6, which analyze the same executions Line-Up's
// phase 2 explores. The multiset of outcomes is the sequential DFS's for any
// Options.Workers; their order is not when more than one worker explores.
// Visit calls are serialized under an internal lock, so single-threaded
// visitors stay correct, and when visit returns false the statistics are
// those of the sequential run that stops at the earliest such execution.
func ForEachExecution(sub *Subject, m *Test, opts Options, recordTrace bool, visit func(*sched.Outcome) bool) (sched.ExploreStats, error) {
	var mu sync.Mutex
	return opts.explore(sub, m, opts.exploreConfig(false, recordTrace), func(out *sched.Outcome, _ sched.Pos) bool {
		mu.Lock()
		defer mu.Unlock()
		return visit(out)
	})
}

// ForEachSerialExecution is the serial-mode sibling of ForEachExecution.
func ForEachSerialExecution(sub *Subject, m *Test, opts Options, recordTrace bool, visit func(*sched.Outcome) bool) (sched.ExploreStats, error) {
	var holder any
	return sched.Explore(opts.exploreConfig(true, recordTrace), program(sub, m, &holder), visit)
}
