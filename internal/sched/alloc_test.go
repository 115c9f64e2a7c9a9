package sched_test

import (
	"sync/atomic"
	"testing"

	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// allocProgram is the steady-state workload of the allocation guard: two
// threads of two recorded operations each, the shape every phase-2
// exploration runs thousands of times.
func allocProgram() sched.Program {
	return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
}

func exploreAllocWorkload(b testing.TB, cfg sched.ExploreConfig, workers int, tel *telemetry.Collector) int {
	var execs atomic.Int64
	cfg.Telemetry = tel
	visit := func(*sched.Outcome, sched.Pos) bool {
		execs.Add(1)
		return true
	}
	var err error
	if workers > 0 {
		_, err = sched.ExploreParallel(cfg, sched.ParallelConfig{Workers: workers}, allocProgram, visit)
	} else {
		_, err = sched.ExploreUnit(cfg, allocProgram(), sched.WorkUnit{}, visit)
	}
	if err != nil {
		b.Fatalf("explore: %v", err)
	}
	return int(execs.Load())
}

// allocWorkloads are the exploration modes under the allocation guard, with
// each one's ceiling in allocations per execution: phase 2 with and without
// sleep sets, phase 1's serial enumeration, and phase 2 through the parallel
// explorer, where decision nodes are cloned across shards and recycled by the
// worker that pops them. An exploration of this size pays its start-up (worker
// goroutines, first nodes, coordinator) over 6 to 86 executions.
var allocWorkloads = []struct {
	name    string
	cfg     sched.ExploreConfig
	workers int
	ceiling float64
}{
	{"full", sched.ExploreConfig{PreemptionBound: 2}, 0, 20},
	{"sleep", sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}, 0, 29},
	{"serial", sched.ExploreConfig{Config: sched.Config{Serial: true}, PreemptionBound: sched.Unbounded}, 0, 29},
	{"parallel", sched.ExploreConfig{PreemptionBound: 2}, 2, 24},
}

// BenchmarkExploreAllocs measures the explorer's per-exploration allocation
// behavior; run with -benchmem to see allocs/op. The paired regression test
// below turns the same workload into a hard ceiling.
func BenchmarkExploreAllocs(b *testing.B) {
	for _, bc := range allocWorkloads {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exploreAllocWorkload(b, bc.cfg, bc.workers, nil)
			}
		})
		b.Run(bc.name+"-telemetry", func(b *testing.B) {
			b.ReportAllocs()
			tel := telemetry.New()
			for i := 0; i < b.N; i++ {
				exploreAllocWorkload(b, bc.cfg, bc.workers, tel)
			}
		})
	}
}

// TestExploreAllocsPerExecution is the allocation regression guard for the
// DFS hot path: each execution (the scheduler and its thread handles, event
// and schedule recording, outcome delivery, the subject's own objects — thread
// goroutines, decision nodes and scheduler buffers are the exploration's, not
// the execution's) must stay under a fixed allocation budget. The ceilings
// have ~40% headroom over measured values; a hot-path change that starts
// allocating per decision or per event blows through them immediately, and
// so does one that goes back to building goroutines, nodes or buffers per
// execution. Every workload also runs with a live telemetry
// collector under the SAME ceiling: the counters are plain atomic adds with
// per-execution delta flushes, so enabling them must not add a single
// allocation to the hot path.
func TestExploreAllocsPerExecution(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, tc := range allocWorkloads {
		for _, tel := range []*telemetry.Collector{nil, telemetry.New()} {
			name := tc.name
			if tel != nil {
				name += "-telemetry"
			}
			t.Run(name, func(t *testing.T) {
				execs := exploreAllocWorkload(t, tc.cfg, tc.workers, tel)
				if execs == 0 {
					t.Fatal("workload ran no executions")
				}
				perRun := testing.AllocsPerRun(5, func() {
					exploreAllocWorkload(t, tc.cfg, tc.workers, tel)
				})
				perExec := perRun / float64(execs)
				t.Logf("%s: %.0f allocs per exploration, %.1f per execution (%d executions)",
					name, perRun, perExec, execs)
				if perExec > tc.ceiling {
					t.Errorf("%s: %.1f allocs per execution exceeds the %.0f ceiling",
						name, perExec, tc.ceiling)
				}
			})
		}
	}
}
