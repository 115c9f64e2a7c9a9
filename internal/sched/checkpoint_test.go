package sched_test

import (
	"fmt"
	"testing"

	"lineup/internal/sched"
)

// outcomeKey is a stable fingerprint of one execution's visible behavior.
func outcomeKey(o *sched.Outcome) string {
	s := ""
	for _, e := range o.Events {
		s += fmt.Sprintf("%d%d%s%s;", e.Thread, e.Kind, e.Op, e.Result)
	}
	if o.Stuck {
		s += "#"
	}
	return s
}

func checkpointProgram() sched.Program {
	return sched.Program{Threads: []func(*sched.Thread){
		opThread(2, "a"), opThread(2, "b"),
	}}
}

// frontiers returns every mid-run frontier of the sequential exploration of
// mk() as a Floor-0 work unit: exploring frontier k continues the DFS from its
// k-th execution on. A split deeper than the tree yields one unit per
// execution, whose Path is that execution's realized path. The frontier
// before the execution is that path cut after the level the DFS last advanced
// — the first level where it departs from the previous execution's path —
// because the deeper levels did not exist yet: the resumed run creates them
// itself and, under reduction, prunes and counts there exactly like the
// uninterrupted one.
func frontiers(t *testing.T, cfg sched.ExploreConfig, mk func() sched.Program) []sched.WorkUnit {
	t.Helper()
	units, _, err := sched.SplitUnits(cfg, mk(), 1<<20)
	if err != nil {
		t.Fatalf("SplitUnits: %v", err)
	}
	out := make([]sched.WorkUnit, len(units))
	for k := 1; k < len(units); k++ {
		prev, path := units[k-1].Path, units[k].Path
		cut := 0
		for cut < len(prev) && cut < len(path) && prev[cut] == path[cut] {
			cut++
		}
		cut++
		out[k] = sched.WorkUnit{Path: path[:cut]}
		if units[k].Explored != nil {
			out[k].Explored = units[k].Explored[:cut]
		}
	}
	return out
}

// cutAndResume explores mk() for cut executions, then resumes from the
// frontier the cut left behind. It returns the concatenated visit keys and
// the summed statistics of the two runs, which an exact resume makes equal to
// the uninterrupted run's.
func cutAndResume(t *testing.T, base sched.ExploreConfig, mk func() sched.Program, cut int, key func(*sched.Outcome) string) ([]string, sched.ExploreStats) {
	t.Helper()
	var got []string
	visit := func(o *sched.Outcome) bool {
		got = append(got, key(o))
		return true
	}
	cfg := base
	cfg.MaxExecutions = cut
	head, err := sched.Explore(cfg, mk(), visit)
	if err != sched.ErrBudget {
		t.Fatalf("interrupted explore: err = %v, want ErrBudget", err)
	}
	if head.Executions != cut {
		t.Fatalf("interrupted explore ran %d executions, want %d", head.Executions, cut)
	}
	fr := frontiers(t, base, mk)
	if cut >= len(fr) {
		t.Fatalf("no frontier after %d executions (%d in total)", cut, len(fr))
	}
	tail, err := sched.ExploreUnit(base, mk(), fr[cut], func(o *sched.Outcome, _ sched.Pos) bool { return visit(o) })
	if err != nil {
		t.Fatalf("resumed explore: %v", err)
	}
	return got, sched.ExploreStats{
		Executions: head.Executions + tail.Executions,
		Decisions:  head.Decisions + tail.Decisions,
		Pruned:     head.Pruned + tail.Pruned,
	}
}

func requireSameVisits(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("resumed run visited %d executions total, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("execution %d differs after resume:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestCheckpointResumeContinuesExactly interrupts an exploration after k
// executions, resumes it from the frontier work unit, and verifies that the
// concatenated visit sequence and the final statistics are identical to an
// uninterrupted run — for several cut points including the first and last
// execution.
func TestCheckpointResumeContinuesExactly(t *testing.T) {
	sched.RequireNoLeaks(t)
	base := sched.ExploreConfig{PreemptionBound: 2}

	var full []string
	fullStats, err := sched.Explore(base, checkpointProgram(), func(o *sched.Outcome) bool {
		full = append(full, outcomeKey(o))
		return true
	})
	if err != nil {
		t.Fatalf("uninterrupted explore: %v", err)
	}
	if len(full) < 10 {
		t.Fatalf("test program too small to interrupt meaningfully: %d executions", len(full))
	}

	for _, cut := range []int{1, 2, len(full) / 2, len(full) - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			got, stats := cutAndResume(t, base, checkpointProgram, cut, outcomeKey)
			requireSameVisits(t, got, full)
			if stats != fullStats {
				t.Fatalf("final stats after resume = %+v, want %+v", stats, fullStats)
			}
		})
	}
}

// TestCheckpointPathIsNextExecution confirms the meaning of a frontier's
// Path: exploring frontier k runs, as its first execution, exactly the k-th
// execution of the uninterrupted run — and there is one frontier per
// execution.
func TestCheckpointPathIsNextExecution(t *testing.T) {
	sched.RequireNoLeaks(t)
	base := sched.ExploreConfig{PreemptionBound: 2}
	var keys []string
	_, err := sched.Explore(base, checkpointProgram(), func(o *sched.Outcome) bool {
		keys = append(keys, outcomeKey(o))
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	fr := frontiers(t, base, checkpointProgram)
	if len(fr) != len(keys) {
		t.Fatalf("got %d frontiers for %d executions", len(fr), len(keys))
	}
	resumed := base
	resumed.MaxExecutions = 1 // just the next execution
	for _, k := range []int{1, len(fr) / 2, len(fr) - 1} {
		var first string
		_, err := sched.ExploreUnit(resumed, checkpointProgram(), fr[k], func(o *sched.Outcome, _ sched.Pos) bool {
			first = outcomeKey(o)
			return true
		})
		if err != nil && err != sched.ErrBudget {
			t.Fatalf("resume at frontier %d: %v", k, err)
		}
		if first != keys[k] {
			t.Fatalf("frontier %d resumed into %q, want %q", k, first, keys[k])
		}
	}
}

// TestCheckpointResumeWithFailures verifies that frontier resume composes
// with failure containment: cutting an exploration of a partially-panicking
// program and resuming reproduces the uninterrupted failure sequence.
func TestCheckpointResumeWithFailures(t *testing.T) {
	sched.RequireNoLeaks(t)
	base := sched.ExploreConfig{PreemptionBound: sched.Unbounded, ContinueOnFailure: true}
	key := func(o *sched.Outcome) string { return o.FailureKind().String() + "|" + outcomeKey(o) }
	var full []string
	fullStats, err := sched.Explore(base, overlapPanicProgram(), func(o *sched.Outcome) bool {
		full = append(full, key(o))
		return true
	})
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	got, stats := cutAndResume(t, base, overlapPanicProgram, len(full)/2, key)
	requireSameVisits(t, got, full)
	if stats != fullStats {
		t.Fatalf("final stats after resume = %+v, want %+v", stats, fullStats)
	}
}
