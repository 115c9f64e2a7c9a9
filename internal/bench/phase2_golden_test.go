package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
)

// TestPhase2Golden pins what a check reports on every cause case, the
// subject and its corrected counterpart, in testdata/phase2.golden: one row
// per (subject, reduction, stop-at-first or exhaustive phase 2) at one
// worker, holding the verdict, the violation as the CLI prints it and both
// phases' statistics, durations excepted. Every exhaustive row must also come
// out of the check split into work units, planned, checked one by one and
// merged at two workers, as `check -test` does. Pruned is the figure a change
// to the explorer's sleep-set bookkeeping moves while executions, decisions
// and histories stay put, so the golden holds it exactly.
// LINEUP_UPDATE_GOLDEN=1 rewrites it; re-record it only on a commit whose
// exploration is the one to keep.
func TestPhase2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("checks every cause case eight times; skipped in -short mode")
	}
	sched.RequireNoLeaks(t)
	var b strings.Builder
	for _, cc := range CauseCases() {
		for _, sub := range []*core.Subject{cc.Subject, cc.Counterpart} {
			if sub == nil {
				continue
			}
			for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				for _, exhaust := range []bool{false, true} {
					opts := core.Options{PreemptionBound: cc.Bound, Reduction: red, ExhaustPhase2: exhaust, Workers: 1}
					tag := fmt.Sprintf("%s %s reduction=%v exhaust=%v", cc.Cause, sub.Name, red, exhaust)
					res, err := core.Check(sub, cc.Test, opts)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					row := phase2Row(tag, res)
					b.WriteString(row)
					if exhaust {
						opts.Workers = 2
						if got := phase2Row(tag, checkUnits(t, sub, cc.Test, opts)); got != row {
							t.Errorf("%s: work units report\n%s one worker reports\n%s", tag, got, row)
						}
					}
				}
			}
		}
	}
	requireGolden(t, "testdata/phase2.golden", b.String())
}

// TestPhase2SleptGolden pins, in testdata/phase2_slept.golden, the rows of
// TestPhase2Golden for Table-2 samples whose sleep-set explorations take
// decisions where every affordable branch is asleep, which no cause case
// does: sample k of the class's 3x3 tests at its bound, stopping at the first
// violation and exhaustive, at one worker, the exhaustive rows also through
// work units at two.
func TestPhase2SleptGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("checks five Table-2 samples; skipped in -short mode")
	}
	sched.RequireNoLeaks(t)
	var b strings.Builder
	for _, s := range []struct {
		class string
		k     int
	}{{"Lazy", 0}, {"Lazy(Pre)", 0}, {"TaskCompletionSource(Pre)", 0}, {"ConcurrentStack(Pre)", 0}, {"ManualResetEvent", 2}} {
		sub, entry, ok := Find(s.class)
		if !ok {
			t.Fatalf("no class %s", s.class)
		}
		m := core.SampleTests(sub.Ops, 3, 3, 4, 1)[s.k]
		for _, exhaust := range []bool{false, true} {
			opts := core.Options{PreemptionBound: entry.Bound, ExhaustPhase2: exhaust, Workers: 1}
			tag := fmt.Sprintf("%s #%d bound=%d exhaust=%v", s.class, s.k, entry.Bound, exhaust)
			res, err := core.Check(sub, m, opts)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			row := phase2Row(tag, res)
			b.WriteString(row)
			if exhaust {
				opts.Workers = 2
				if got := phase2Row(tag, checkUnits(t, sub, m, opts)); got != row {
					t.Errorf("%s: work units report\n%s one worker reports\n%s", tag, got, row)
				}
			}
		}
	}
	requireGolden(t, "testdata/phase2_slept.golden", b.String())
}

// requireGolden compares got with the golden file at path, or rewrites the
// file when LINEUP_UPDATE_GOLDEN is set.
func requireGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("LINEUP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("phase 2 results moved:\n got\n%s want\n%s", got, golden)
	}
}

// phase2Row is one golden row: the tag and verdict, the violation indented
// under it, and both phases' statistics with their durations zeroed.
func phase2Row(tag string, r *core.Result) string {
	p1, p2 := r.Phase1, r.Phase2
	p1.Duration, p2.Duration = 0, 0
	return fmt.Sprintf("%s: %v\n  violation: %s\n  phase 1 %+v\n  phase 2 %+v\n",
		tag, r.Verdict, strings.ReplaceAll(violation(r), "\n", "\n    "), p1, p2)
}
