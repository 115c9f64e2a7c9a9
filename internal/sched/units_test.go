package sched_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"lineup/internal/sched"
)

// runUnits splits prog and explores every unit in sequence, returning the
// concatenated visit keys, the summed per-unit stats, and the split stats.
func runUnits(t *testing.T, cfg sched.ExploreConfig, mk func() sched.Program, depth int) ([]string, sched.ExploreStats, sched.SplitStats) {
	t.Helper()
	units, split, err := sched.SplitUnits(cfg, mk(), depth)
	if err != nil {
		t.Fatalf("SplitUnits: %v", err)
	}
	if split.Units != len(units) || split.DiscoveryExecutions != len(units) {
		t.Fatalf("split stats inconsistent: %+v for %d units", split, len(units))
	}
	var keys []string
	var sum sched.ExploreStats
	for _, u := range units {
		stats, err := sched.ExploreUnit(cfg, mk(), u, func(o *sched.Outcome, p sched.Pos) bool {
			keys = append(keys, o.FailureKind().String()+"|"+outcomeKey(o))
			return true
		})
		if err != nil {
			t.Fatalf("ExploreUnit(%d): %v", u.Seq, err)
		}
		sum.Executions += stats.Executions
		sum.Decisions += stats.Decisions
		sum.Pruned += stats.Pruned
	}
	return keys, sum, split
}

// TestUnitsReproduceSequentialExploration is the partition lemma everything
// in internal/dist rests on: splitting the tree into work units and exploring
// each unit independently must reproduce the sequential explorer's visit
// sequence in order, and the summed per-unit statistics (plus the generator's
// pruned share) must equal the sequential statistics exactly — across
// programs, preemption bounds, split depths, and reduction on/off.
func TestUnitsReproduceSequentialExploration(t *testing.T) {
	sched.RequireNoLeaks(t)
	progs := []struct {
		name   string
		mk     func() sched.Program
		bounds []int
	}{
		{"2x2", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
		}, []int{0, 1, 2, sched.Unbounded}},
		{"3x1", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(1, "a"), opThread(1, "b"), opThread(1, "c")}}
		}, []int{0, 1, 2}},
		{"uneven", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(1, "a"), opThread(3, "b")}}
		}, []int{0, 2, sched.Unbounded}},
		{"mixed-mem", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){
				mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 2, 1),
			}}
		}, []int{0, 1, 2}},
	}
	for _, p := range progs {
		for _, bound := range p.bounds {
			for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: red}
				var want []string
				wantStats, err := sched.Explore(cfg, p.mk(), func(o *sched.Outcome) bool {
					want = append(want, o.FailureKind().String()+"|"+outcomeKey(o))
					return true
				})
				if err != nil {
					t.Fatalf("%s bound=%d red=%v: sequential explore: %v", p.name, bound, red, err)
				}
				for _, depth := range []int{1, 2, 3} {
					tag := fmt.Sprintf("%s bound=%d red=%v depth=%d", p.name, bound, red, depth)
					got, sum, split := runUnits(t, cfg, p.mk, depth)
					if len(got) != len(want) {
						t.Fatalf("%s: units visited %d executions, sequential %d", tag, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: visit %d differs:\n got %q\nwant %q", tag, i, got[i], want[i])
						}
					}
					if sum.Executions != wantStats.Executions || sum.Decisions != wantStats.Decisions {
						t.Fatalf("%s: summed stats %+v, sequential %+v", tag, sum, wantStats)
					}
					if merged := sum.Pruned + split.Pruned; merged != wantStats.Pruned {
						t.Fatalf("%s: merged pruned %d (workers %d + split %d), sequential %d",
							tag, merged, sum.Pruned, split.Pruned, wantStats.Pruned)
					}
				}
			}
		}
	}
}

// TestExploreUnitIdempotent replays the same unit several times: the visit
// sequence and statistics must be byte-identical on every replay. This is the
// property that makes at-least-once lease reassignment safe — a unit run
// twice (worker killed after finishing, lease reassigned) merges the same
// report.
func TestExploreUnitIdempotent(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2),
		}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}
	units, _, err := sched.SplitUnits(cfg, mk(), 2)
	if err != nil {
		t.Fatalf("SplitUnits: %v", err)
	}
	for _, u := range units {
		run := func() ([]string, sched.ExploreStats) {
			var keys []string
			stats, err := sched.ExploreUnit(cfg, mk(), u, func(o *sched.Outcome, p sched.Pos) bool {
				keys = append(keys, outcomeKey(o)+fmt.Sprint([]int(p)))
				return true
			})
			if err != nil {
				t.Fatalf("ExploreUnit(%d): %v", u.Seq, err)
			}
			return keys, stats
		}
		k1, s1 := run()
		k2, s2 := run()
		if len(k1) != len(k2) || s1 != s2 {
			t.Fatalf("unit %d not idempotent: %d/%+v then %d/%+v", u.Seq, len(k1), s1, len(k2), s2)
		}
		for i := range k1 {
			if k1[i] != k2[i] {
				t.Fatalf("unit %d replay diverged at visit %d: %q vs %q", u.Seq, i, k1[i], k2[i])
			}
		}
	}
}

// TestUnitsWithFailures drives the split through a program where many
// schedules panic: with ContinueOnFailure the concatenated unit visits (with
// failure kinds) must match the sequential run, including the poisoned-window
// bookkeeping that failures force on the reduction.
func TestUnitsWithFailures(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		cfg := sched.ExploreConfig{
			PreemptionBound:   sched.Unbounded,
			ContinueOnFailure: true,
			Reduction:         red,
		}
		var want []string
		wantStats, err := sched.Explore(cfg, overlapPanicProgram(), func(o *sched.Outcome) bool {
			want = append(want, o.FailureKind().String()+"|"+outcomeKey(o))
			return true
		})
		if err != nil {
			t.Fatalf("red=%v: sequential explore: %v", red, err)
		}
		hasFailure := false
		for _, k := range want {
			if k[:4] != "none" {
				hasFailure = true
			}
		}
		if !hasFailure {
			t.Fatalf("red=%v: fixture produced no failures; test is vacuous", red)
		}
		for _, depth := range []int{1, 2} {
			got, sum, split := runUnits(t, cfg, overlapPanicProgram, depth)
			tag := fmt.Sprintf("red=%v depth=%d", red, depth)
			if len(got) != len(want) {
				t.Fatalf("%s: units visited %d executions, sequential %d", tag, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: visit %d differs:\n got %q\nwant %q", tag, i, got[i], want[i])
				}
			}
			if sum.Executions != wantStats.Executions || sum.Decisions != wantStats.Decisions ||
				sum.Pruned+split.Pruned != wantStats.Pruned {
				t.Fatalf("%s: merged stats %+v+%d, sequential %+v", tag, sum, split.Pruned, wantStats)
			}
		}
	}
}

// TestWorkUnitJSONRoundTrip serializes every unit through JSON — the form
// internal/dist writes to unit files — and verifies the round-tripped unit
// explores identically to the original.
func TestWorkUnitJSONRoundTrip(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2),
		}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}
	units, _, err := sched.SplitUnits(cfg, mk(), 2)
	if err != nil {
		t.Fatalf("SplitUnits: %v", err)
	}
	explore := func(u sched.WorkUnit) ([]string, sched.ExploreStats) {
		var keys []string
		stats, err := sched.ExploreUnit(cfg, mk(), u, func(o *sched.Outcome, p sched.Pos) bool {
			keys = append(keys, outcomeKey(o))
			return true
		})
		if err != nil {
			t.Fatalf("ExploreUnit: %v", err)
		}
		return keys, stats
	}
	for _, u := range units {
		b, err := json.Marshal(u)
		if err != nil {
			t.Fatalf("marshal unit %d: %v", u.Seq, err)
		}
		var back sched.WorkUnit
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal unit %d: %v", u.Seq, err)
		}
		k1, s1 := explore(u)
		k2, s2 := explore(back)
		if len(k1) != len(k2) || s1 != s2 {
			t.Fatalf("unit %d round trip changed exploration: %d/%+v vs %d/%+v", u.Seq, len(k1), s1, len(k2), s2)
		}
		for i := range k1 {
			if k1[i] != k2[i] {
				t.Fatalf("unit %d round trip diverged at visit %d", u.Seq, i)
			}
		}
	}
}

// TestExploreUnitBudget confines a unit to fewer executions than its subtree
// holds: it must stop with ErrBudget and the Truncated flag, like Explore.
func TestExploreUnitBudget(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded}
	units, _, err := sched.SplitUnits(cfg, mk(), 1)
	if err != nil {
		t.Fatalf("SplitUnits: %v", err)
	}
	// Find a unit with more than one execution.
	var big *sched.WorkUnit
	for i, u := range units {
		n := 0
		if _, err := sched.ExploreUnit(cfg, mk(), u, func(*sched.Outcome, sched.Pos) bool { n++; return true }); err != nil {
			t.Fatalf("ExploreUnit: %v", err)
		}
		if n > 1 {
			big = &units[i]
			break
		}
	}
	if big == nil {
		t.Fatal("no unit with more than one execution; fixture too small")
	}
	capped := cfg
	capped.MaxExecutions = 1
	stats, err := sched.ExploreUnit(capped, mk(), *big, func(*sched.Outcome, sched.Pos) bool { return true })
	if err != sched.ErrBudget || !stats.Truncated || stats.Executions != 1 {
		t.Fatalf("capped unit: stats=%+v err=%v, want 1 truncated execution with ErrBudget", stats, err)
	}
}

// TestUnitsOwnTheirRecords marshals every work unit when the generator cuts
// it and again after generation ends: the bytes must not differ. A unit's
// retired-branch records are copied out of their nodes' stores, which the
// generator reuses as soon as it pops those nodes.
func TestUnitsOwnTheirRecords(t *testing.T) {
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 2, 1),
		}}
	}
	records := 0
	for _, bound := range []int{1, 2, sched.Unbounded} {
		for _, depth := range []int{1, 2, 3} {
			cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: sched.ReductionSleep}
			var units []sched.WorkUnit
			var cut [][]byte
			_, err := sched.SplitUnitsEach(cfg, mk(), depth, func(u sched.WorkUnit) {
				b, err := json.Marshal(u)
				if err != nil {
					t.Fatal(err)
				}
				for _, level := range u.Explored {
					records += len(level)
				}
				units, cut = append(units, u), append(cut, b)
			})
			if err != nil {
				t.Fatalf("bound=%d depth=%d: %v", bound, depth, err)
			}
			for i, u := range units {
				if b, _ := json.Marshal(u); string(b) != string(cut[i]) {
					t.Fatalf("bound=%d depth=%d: unit %d changed after it was cut:\n cut %s\n end %s", bound, depth, i, cut[i], b)
				}
			}
		}
	}
	if records == 0 {
		t.Fatal("no unit carries a retired branch: nothing was checked")
	}
	t.Logf("%d retired-branch records checked", records)
}
