package sched_test

import (
	"fmt"
	"testing"

	"lineup/internal/sched"
)

// dataThread builds a thread body of n instrumented atomic writes to one
// shared location, with no operation events — the pure data-step shape where
// footprint-based independence is decidable per location.
func dataThread(loc, n int) func(t *sched.Thread) {
	return func(t *sched.Thread) {
		for i := 0; i < n; i++ {
			t.Point()
			t.Record(sched.MemWrite, loc, "x")
		}
	}
}

// mixedThread wraps n private data steps in one recorded operation: the
// call/return events order globally (operation boundaries never commute),
// the data steps only against accesses of the same location.
func mixedThread(name string, loc, n int) func(t *sched.Thread) {
	return func(t *sched.Thread) {
		t.OpStart(name)
		for i := 0; i < n; i++ {
			t.Point()
			t.Record(sched.MemWrite, loc, name)
		}
		t.OpEnd(name, "ok")
	}
}

// TestParseReduction pins the text form: "sleep" (the zero value) and
// "none" read back as themselves, anything else — the empty string included,
// which once read as none — is refused.
func TestParseReduction(t *testing.T) {
	for spec, want := range map[string]sched.Reduction{
		"none":  sched.ReductionNone,
		"sleep": sched.ReductionSleep,
	} {
		var got sched.Reduction
		if err := got.UnmarshalText([]byte(spec)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", spec, got, err, want)
		}
		if s, _ := want.MarshalText(); string(s) != spec {
			t.Errorf("%v.MarshalText() = %q, want %q", want, s, spec)
		}
	}
	if sched.Reduction(0) != sched.ReductionSleep {
		t.Error("the zero Reduction is not sleep")
	}
	for _, bad := range []string{"", "bogus"} {
		var r sched.Reduction
		if err := r.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted a bogus strategy as %v", bad, r)
		}
	}
}

func TestFootprintConflicts(t *testing.T) {
	fp := func(acc ...sched.LocAccess) *sched.Footprint { return &sched.Footprint{Acc: acc} }
	r0 := sched.LocAccess{Loc: 0}
	w0 := sched.LocAccess{Loc: 0, Write: true}
	w1 := sched.LocAccess{Loc: 1, Write: true}
	cases := []struct {
		name string
		a, b *sched.Footprint
		want bool
	}{
		{"nil conflicts", nil, fp(), true},
		{"global poisons", &sched.Footprint{Global: true}, fp(), true},
		{"both events", &sched.Footprint{Event: true}, &sched.Footprint{Event: true}, true},
		{"one event only", &sched.Footprint{Event: true}, fp(w0), false},
		{"read read same loc", fp(r0), fp(r0), false},
		{"read write same loc", fp(r0), fp(w0), true},
		{"write write same loc", fp(w0), fp(w0), true},
		{"disjoint locs", fp(w0), fp(w1), false},
		{"empty empty", fp(), fp(), false},
	}
	for _, c := range cases {
		if got := c.a.ConflictsWith(c.b); got != c.want {
			t.Errorf("%s: ConflictsWith = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.ConflictsWith(c.a); got != c.want {
			t.Errorf("%s (flipped): ConflictsWith = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSleepSetPrunesIndependentSteps explores two threads whose steps touch
// disjoint locations: every interleaving is Mazurkiewicz-equivalent, so
// sleep sets must collapse the unbounded schedule space, and must do so
// deterministically.
func TestSleepSetPrunesIndependentSteps(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){dataThread(0, 2), dataThread(1, 2)}}
	}
	full, fullStats := exploreAll(t, sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: sched.ReductionNone}, prog())
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: sched.ReductionSleep}
	reduced, stats := exploreAll(t, cfg, prog())
	if len(reduced) >= len(full) {
		t.Fatalf("reduction did not shrink the schedule space: %d vs %d", len(reduced), len(full))
	}
	if stats.Pruned == 0 {
		t.Fatal("reduction reports no pruned branches")
	}
	if fullStats.Pruned != 0 {
		t.Fatalf("unreduced exploration reports %d pruned branches", fullStats.Pruned)
	}
	again, statsAgain := exploreAll(t, cfg, prog())
	if len(again) != len(reduced) || statsAgain != stats {
		t.Fatalf("reduced exploration is not deterministic: %+v then %+v", stats, statsAgain)
	}
}

// TestSleepSetRespectsConflicts compares the same program shape with
// conflicting vs disjoint data steps: when both threads write the same
// location their data steps never commute, so the reduced exploration must
// keep strictly more schedules than the disjoint-location variant (where
// only window order varies). The empty entry/exit windows of each thread
// still commute in both variants, so some pruning is expected even under
// conflicts — exactness of what remains is TestSleepSetHistoryEquivalence's
// job.
func TestSleepSetRespectsConflicts(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func(locB int) func() sched.Program {
		return func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){dataThread(0, 2), dataThread(locB, 2)}}
		}
	}
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: sched.ReductionSleep}
	conflicting, _ := exploreAll(t, cfg, mk(0)())
	disjoint, _ := exploreAll(t, cfg, mk(1)())
	if len(conflicting) <= len(disjoint) {
		t.Fatalf("conflicting writes explored %d schedules, disjoint %d; dependence is being ignored",
			len(conflicting), len(disjoint))
	}
	full, _ := exploreAll(t, sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: sched.ReductionNone}, mk(0)())
	if len(conflicting) > len(full) {
		t.Fatalf("reduced exploration ran more executions (%d) than full (%d)", len(conflicting), len(full))
	}
}

// TestSleepSetHistoryEquivalence is the exactness property at the scheduler
// level: with operations recording history events and private data steps in
// between, the reduced exploration must visit exactly the set of distinct
// histories the full one visits — under the preemption bound and unbounded.
func TestSleepSetHistoryEquivalence(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2),
		}}
	}
	for _, bound := range []int{0, 1, 2, sched.Unbounded} {
		full, fullStats := exploreAll(t, sched.ExploreConfig{PreemptionBound: bound, Reduction: sched.ReductionNone}, prog())
		if fullStats.Pruned != 0 {
			t.Fatalf("bound=%d: the unreduced reference pruned %d branches", bound, fullStats.Pruned)
		}
		reduced, stats := exploreAll(t, sched.ExploreConfig{
			PreemptionBound: bound, Reduction: sched.ReductionSleep,
		}, prog())
		if len(reduced) > len(full) {
			t.Fatalf("bound=%d: reduced exploration ran more executions (%d) than full (%d)",
				bound, len(reduced), len(full))
		}
		want, got := map[string]bool{}, map[string]bool{}
		for _, o := range full {
			want[outcomeKey(o)] = true
		}
		for _, o := range reduced {
			got[outcomeKey(o)] = true
		}
		if len(want) != len(got) {
			t.Fatalf("bound=%d: distinct histories differ: full %d, reduced %d (pruned %d)",
				bound, len(want), len(got), stats.Pruned)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("bound=%d: reduction lost history %q", bound, k)
			}
		}
	}
}

// TestReductionCheckpointResume interrupts a reduced exploration at several
// cut points and resumes it from the frontier work unit: the concatenated
// visit sequence and the final statistics — including the pruned count — must
// match an uninterrupted reduced run. This is what WorkUnit.Explored exists
// for: the retired branches' footprints cannot be recomputed from the
// frontier path alone.
func TestReductionCheckpointResume(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2),
		}}
	}
	base := sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}
	var full []string
	fullStats, err := sched.Explore(base, prog(), func(o *sched.Outcome) bool {
		full = append(full, outcomeKey(o))
		return true
	})
	if err != nil {
		t.Fatalf("uninterrupted explore: %v", err)
	}
	if fullStats.Pruned == 0 {
		t.Fatal("fixture explores without pruning; resume would not exercise Explored")
	}
	for _, cut := range []int{1, 2, len(full) / 2, len(full) - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			got, stats := cutAndResume(t, base, prog, cut, outcomeKey)
			requireSameVisits(t, got, full)
			if stats != fullStats {
				t.Fatalf("final stats after resume = %+v, want %+v", stats, fullStats)
			}
		})
	}
}

// TestParallelReductionEquivalence checks that sleep-set pruning is a
// deterministic function of the schedule tree: the parallel explorer must
// visit the same outcome multiset and merge the same statistics — including
// Pruned — as the sequential reduced exploration, across worker counts and
// recruiting points.
func TestParallelReductionEquivalence(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 2, 1),
		}}
	}
	for _, bound := range []int{0, 1, 2, sched.Unbounded} {
		cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: sched.ReductionSleep}
		wantMS, wantStats, err := exploreSeq(t, cfg, mk())
		if err != nil {
			t.Fatalf("bound=%d: sequential explore: %v", bound, err)
		}
		if bound > 0 && wantStats.Pruned == 0 {
			t.Fatalf("bound=%d: fixture prunes nothing; equivalence is vacuous", bound)
		}
		for _, w := range []int{1, 2, 4} {
			for _, after := range []int{1, 5, 64} {
				restore := sched.SetRecruitAfter(after)
				gotMS, gotStats, err := explorePar(t, cfg, w, mk)
				restore()
				tag := fmt.Sprintf("bound=%d workers=%d recruit-after=%d", bound, w, after)
				if err != nil {
					t.Fatalf("%s: parallel explore: %v", tag, err)
				}
				if !wantMS.equal(gotMS) {
					t.Fatalf("%s: outcome multisets differ: sequential %d distinct, parallel %d distinct",
						tag, len(wantMS), len(gotMS))
				}
				if gotStats != wantStats {
					t.Fatalf("%s: stats differ: sequential %+v parallel %+v", tag, wantStats, gotStats)
				}
			}
		}
	}
}

// TestParallelSplitEverywhereEquivalence is the equivalence suite with a split
// forced before every execution (see ExploreSplitEverywhere), with and without
// reduction. Decision nodes are recycled by whichever explorer pops them, so a
// node a split left shared between two stacks is overwritten under its other
// owner: the replay check panics, or the multiset and the statistics drift.
func TestParallelSplitEverywhereEquivalence(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 2, 1),
		}}
	}
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		bounds := []int{1, 2}
		if red == sched.ReductionSleep {
			// Unbounded, every retired branch is recorded, the one the
			// split hands over included (the full tree is 252 252
			// executions unreduced).
			bounds = append(bounds, sched.Unbounded)
		}
		for _, bound := range bounds {
			cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: red}
			tag := fmt.Sprintf("reduction=%v bound=%d", red, bound)
			wantMS, wantStats, err := exploreSeq(t, cfg, mk())
			if err != nil {
				t.Fatalf("%s: sequential explore: %v", tag, err)
			}
			gotMS := multiset{}
			gotStats, splits, err := sched.ExploreSplitEverywhere(cfg, mk, func(o *sched.Outcome, _ sched.Pos) bool {
				gotMS[fullKey(o)]++
				return true
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if splits < wantStats.Executions/4 {
				t.Fatalf("%s: only %d splits over %d executions; nothing was forced", tag, splits, wantStats.Executions)
			}
			if !wantMS.equal(gotMS) {
				t.Fatalf("%s: outcome multisets differ: sequential %d distinct, split %d distinct", tag, len(wantMS), len(gotMS))
			}
			if gotStats != wantStats {
				t.Fatalf("%s: stats differ: sequential %+v split %+v", tag, wantStats, gotStats)
			}
			t.Logf("%s: %d executions, %d splits", tag, gotStats.Executions, splits)
		}
	}
}

// TestRetiredFootprintsBoundedByStack runs long sleep-set explorations and
// counts the footprint records their decision nodes still hold: a record
// lives in the node that retired its branch and dies when the node is
// recycled, so at most one record per branch of a live or free node remains,
// however many branches the exploration retired.
func TestRetiredFootprintsBoundedByStack(t *testing.T) {
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 3), mixedThread("b", 1, 2), mixedThread("c", 0, 2),
		}}
	}
	for _, bound := range []int{2, sched.Unbounded} {
		cfg := sched.ExploreConfig{PreemptionBound: bound, Reduction: sched.ReductionSleep}
		records, enabled, stats, err := sched.FootprintRecords(cfg, mk())
		if err != nil {
			t.Fatalf("bound=%d: %v", bound, err)
		}
		t.Logf("bound=%d: %d executions, %d pruned, %d records over nodes of %d branches",
			bound, stats.Executions, stats.Pruned, records, enabled)
		if stats.Executions < 200 || stats.Pruned == 0 {
			t.Fatalf("bound=%d: %d executions, %d pruned: too small to retire many branches", bound, stats.Executions, stats.Pruned)
		}
		if records > enabled {
			t.Errorf("bound=%d: nodes hold %d footprint records, more than their %d branches", bound, records, enabled)
		}
	}
}
