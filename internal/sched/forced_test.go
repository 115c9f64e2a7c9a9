package sched_test

import (
	"fmt"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// TestForcedDecisionsMatchNodes holds the explorer, which makes no node of a
// decision that cannot branch — one with no choice (the budget spent, the
// current thread enabled), or one whose every affordable branch is asleep —
// to the reference that makes every decision with no choice a node
// (sched.KeepForcedNodes). Under sleep sets the next node must inherit the
// sleep set the chain of forced nodes handed down — woken by each forced
// window, the forced thread dropped at each — and a forced thread found
// asleep must count one pruned branch, as its node did. Wait sets and a
// blocked observer make the lone enabled thread take over without a
// decision, which is what puts a forced thread to sleep, and leave decisions
// with every branch asleep, most with the current thread blocked. Those are
// no nodes in the reference either, so here they exercise only the replay by
// decision number in work units; TestPhase2SleptGolden (internal/bench) pins
// the results of explorations that take them. Bounded and unbounded, the visit
// sequence and the statistics must be the reference's on one worker and in
// work units, and the multiset and statistics on two and four.
func TestForcedDecisionsMatchNodes(t *testing.T) {
	sched.RequireNoLeaks(t)
	fig9 := causeCase(t, bench.CauseA)
	isSet, ok := fig9.Subject.FindOp("IsSet()")
	if !ok {
		t.Fatal("ManualResetEvent(Pre) has no IsSet()")
	}
	fig9Rows := append(append([][]core.Op(nil), fig9.Test.Rows...), []core.Op{isSet})
	queue, entry, ok := bench.Find("ConcurrentQueue")
	if !ok {
		t.Fatal("no ConcurrentQueue")
	}
	queueRows := core.SampleTests(queue.Ops, 2, 2, 1, 1)[0].Rows
	// Cut three levels deep, this test's generator ends executions with a
	// forced thread asleep after their deepest node: the pruned branch lies
	// past the unit's path, so the unit counts it and the generator must not.
	bc, _, ok := bench.Find("BlockingCollection")
	if !ok {
		t.Fatal("no BlockingCollection")
	}
	bcRows := core.SampleTests(bc.Ops, 2, 2, 10, 1)[3].Rows
	cases := []struct {
		name   string
		mk     func() sched.Program
		bounds []int
	}{
		{"fig9-observer", func() sched.Program { return subjectProgram(fig9.Subject, fig9Rows) }, []int{0, 1, 2}},
		{"queue-2x2", func() sched.Program { return subjectProgram(queue, queueRows) }, []int{1, entry.Bound}},
		{"blocking-2x2", func() sched.Program { return subjectProgram(bc, bcRows) }, []int{1, 2}},
		{"waitset", waitSetProgram, []int{0, 1, 2}},
		{"panic", panicProgram, []int{0, 1, 2}},
		{"mixed-mem", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){
				mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 0, 1),
			}}
		}, []int{0, 1, 2, sched.Unbounded}},
	}
	for _, c := range cases {
		for _, bound := range c.bounds {
			for _, red := range []sched.Reduction{sched.ReductionSleep, sched.ReductionNone} {
				if bound == sched.Unbounded && red == sched.ReductionNone {
					continue // 252 252 executions, none of them forced
				}
				cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: red, ContinueOnFailure: true}
				tag := fmt.Sprintf("%s bound=%d reduction=%v", c.name, bound, red)
				restore := sched.KeepForcedNodes()
				want, wantMS, wantStats := forcedVisits(t, tag+" nodes", cfg, c.mk())
				restore()
				got, _, gotStats := forcedVisits(t, tag, cfg, c.mk())
				if gotStats != wantStats {
					t.Fatalf("%s: stats %+v, a node per decision %+v", tag, gotStats, wantStats)
				}
				requireVisitsMatch(t, tag, got, want)
				for _, depth := range []int{1, 3} {
					keys, sum, split := runUnits(t, cfg, c.mk, depth)
					units := fmt.Sprintf("%s units depth=%d", tag, depth)
					requireVisitsMatch(t, units, keys, want)
					sum.Pruned += split.Pruned
					if sum != wantStats {
						t.Fatalf("%s: merged stats %+v, a node per decision %+v", units, sum, wantStats)
					}
				}
				for _, w := range []int{2, 4} {
					restore := sched.SetRecruitAfter(1)
					gotMS, gotStats, err := explorePar(t, cfg, w, c.mk)
					restore()
					if err != nil {
						t.Fatalf("%s workers=%d: %v", tag, w, err)
					}
					if gotStats != wantStats {
						t.Fatalf("%s workers=%d: stats %+v, a node per decision %+v", tag, w, gotStats, wantStats)
					}
					if !gotMS.equal(wantMS) {
						t.Fatalf("%s workers=%d: outcome multisets differ: %d distinct, a node per decision %d", tag, w, len(gotMS), len(wantMS))
					}
				}
			}
		}
	}
}

// panicProgram's reader panics when it reads the writer's first value: a
// failed execution whose interrupted window may follow forced decisions,
// where it must poison nothing the nodes keep.
func panicProgram() sched.Program {
	var x int
	return sched.Program{
		Setup: func(*sched.Thread) { x = 0 },
		Threads: []func(*sched.Thread){
			func(t *sched.Thread) {
				t.OpStart("w")
				for v := 1; v <= 2; v++ {
					t.Point()
					t.Record(sched.MemWrite, 0, "x")
					x = v
				}
				t.OpEnd("w", "ok")
			},
			func(t *sched.Thread) {
				t.OpStart("r")
				t.Point()
				t.Record(sched.MemRead, 0, "x")
				if x == 1 {
					panic("read the first write")
				}
				t.OpEnd("r", "ok")
			},
			mixedThread("c", 1, 2),
		},
	}
}

// forcedVisits explores prog on one worker and returns each visit's key in
// order and the outcome multiset explorePar collects, requiring the
// positions to increase.
func forcedVisits(t *testing.T, tag string, cfg sched.ExploreConfig, prog sched.Program) ([]string, multiset, sched.ExploreStats) {
	t.Helper()
	var keys []string
	ms := multiset{}
	var last sched.Pos
	stats, err := sched.ExploreUnit(cfg, prog, sched.WorkUnit{}, func(o *sched.Outcome, p sched.Pos) bool {
		if last != nil && !last.Before(p) {
			t.Fatalf("%s: position %v visited after %v", tag, p, last)
		}
		last = p.Clone()
		keys = append(keys, o.FailureKind().String()+"|"+outcomeKey(o))
		ms[fullKey(o)]++
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return keys, ms, stats
}

func requireVisitsMatch(t *testing.T, tag string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d visits, a node per decision %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: visit %d is %q, a node per decision %q", tag, i, got[i], want[i])
		}
	}
}
