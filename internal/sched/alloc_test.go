package sched_test

import (
	"runtime"
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

func exploreAllocWorkload(b testing.TB, cfg sched.ExploreConfig, workers int, prog func() sched.Program, tel *telemetry.Collector) int {
	var execs atomic.Int64
	cfg.Telemetry = tel
	visit := func(*sched.Outcome, sched.Pos) bool {
		execs.Add(1)
		return true
	}
	var err error
	if workers > 0 {
		// Helpers are recruited from the first execution: these workloads end
		// long before the default mark, which would leave a lone DFS.
		defer sched.SetRecruitAfter(1)()
		_, err = sched.ExploreParallel(cfg, workers, prog, visit)
	} else {
		_, err = sched.ExploreUnit(cfg, prog(), sched.WorkUnit{}, visit)
	}
	if err != nil {
		b.Fatalf("explore: %v", err)
	}
	return int(execs.Load())
}

// allocWorkloads are the exploration modes under the allocation guard, with
// each one's ceiling in allocations per execution: phase 2 with and without
// sleep sets, phase 1's serial enumeration, phase 2 through the parallel
// explorer with a helper recruited from the first execution, where a split
// hands a shard over as a work unit and the worker that starts it replays its
// path on the nodes of its previous shard,
// and threads blocking on a wait set made per execution, whose first waiters
// are kept inline. An exploration of this size pays its start-up (worker
// goroutines, first nodes, coordinator) over 6 to 872 executions. The two
// sleep-set rows and the wait-set row also carry a ceiling in bytes per
// execution (0: none).
var allocWorkloads = []struct {
	name    string
	cfg     sched.ExploreConfig
	workers int
	prog    func() sched.Program
	ceiling float64
	bytes   float64
}{
	{"full", sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionNone}, 0, allocProgram, 10.2, 0},
	{"sleep", sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}, 0, allocProgram, 11.6, 252},
	{"serial", sched.ExploreConfig{Config: sched.Config{Serial: true}, PreemptionBound: sched.Unbounded}, 0, allocProgram, 22.3, 0},
	{"parallel", sched.ExploreConfig{PreemptionBound: 2}, 2, allocProgram, 12, 450},
	{"waitset", sched.ExploreConfig{PreemptionBound: 2}, 0, waitSetProgram, 0.23, 13.5},
}

// BenchmarkExploreAllocs measures the explorer's per-exploration allocation
// behavior; run with -benchmem to see allocs/op. The paired regression test
// below turns the same workload into a hard ceiling.
func BenchmarkExploreAllocs(b *testing.B) {
	for _, bc := range allocWorkloads {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exploreAllocWorkload(b, bc.cfg, bc.workers, bc.prog, nil)
			}
		})
		b.Run(bc.name+"-telemetry", func(b *testing.B) {
			b.ReportAllocs()
			tel := telemetry.New()
			for i := 0; i < b.N; i++ {
				exploreAllocWorkload(b, bc.cfg, bc.workers, bc.prog, tel)
			}
		})
	}
}

// TestExploreAllocsPerExecution is the allocation regression guard for the
// DFS hot path: each execution allocates the subject's own objects (here
// mostly the operation names), and nothing else — thread goroutines and
// handles, decision nodes, the scheduler, its recording buffers, the outcome
// and the window footprints are the explorer's, not the execution's.
// The ceilings are within 10% of measured values (9.3, 10.5, 20.3, 10.9 and
// 0.2 allocations; 229, 410 and 12 bytes, the parallel row's splits varying
// from run to run). A hot-path change that starts allocating per decision,
// per event, per window or per wait blows through them immediately, and so
// does one that goes back to building a scheduler, goroutines, nodes,
// buffers or thread handles per execution: with a Thread slab made per
// execution the rows read 10.3, 11.5, 21.2, 11.9 and 1.2 allocations and
// 479, 630 and 331 bytes. A store of retired footprints kept for the
// explorer's whole life (639 and 1 006 bytes before the slab went; its first
// chunk alone is 8 KB per explorer) does not fit under them either. Every workload also runs with a live telemetry collector under
// the SAME ceiling: the counters are plain atomic adds with per-execution
// delta flushes, so enabling them must not add a single allocation to the hot
// path.
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
				execs := exploreAllocWorkload(t, tc.cfg, tc.workers, tc.prog, tel)
				if execs == 0 {
					t.Fatal("workload ran no executions")
				}
				perRun := testing.AllocsPerRun(5, func() {
					exploreAllocWorkload(t, tc.cfg, tc.workers, tc.prog, tel)
				})
				perExec := perRun / float64(execs)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 5; i++ {
					exploreAllocWorkload(t, tc.cfg, tc.workers, tc.prog, tel)
				}
				runtime.ReadMemStats(&after)
				bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(5*execs)
				t.Logf("%s: %.0f allocs per exploration, %.1f per execution (%d executions), %.0f bytes per execution",
					name, perRun, perExec, execs, bytes)
				if perExec > tc.ceiling {
					t.Errorf("%s: %.1f allocs per execution exceeds the %.1f ceiling",
						name, perExec, tc.ceiling)
				}
				if tc.bytes > 0 && bytes > tc.bytes {
					t.Errorf("%s: %.0f bytes per execution exceeds the %.0f ceiling", name, bytes, tc.bytes)
				}
			})
		}
	}
}
