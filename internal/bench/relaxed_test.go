package bench_test

import (
	"errors"
	"strings"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// findCause returns the directed case for one root cause.
func findCause(t *testing.T, id bench.Cause) bench.CauseCase {
	t.Helper()
	for _, c := range bench.CauseCases() {
		if c.Cause == id {
			return c
		}
	}
	t.Fatalf("cause %s not found", id)
	return bench.CauseCase{}
}

// TestRelaxedOpsTolerateIntentionalNondeterminism exercises the Section 6
// extension: after the .NET developers documented the weak semantics of the
// bag's and blocking collection's observers (Section 5.2.2), a user relaxes
// exactly those methods; the directed tests for causes H, I and J then
// pass, while everything else about the classes stays checked.
func TestRelaxedOpsToleratesIntentionalNondeterminism(t *testing.T) {
	cases := []struct {
		cause   bench.Cause
		relaxed []string
	}{
		{bench.CauseH, []string{"Count()"}},
		{bench.CauseI, []string{"Count()"}},
		{bench.CauseJ, []string{"TryTake()"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.cause), func(t *testing.T) {
			c := findCause(t, tc.cause)
			strict, err := core.Check(c.Subject, c.Test, core.Options{PreemptionBound: c.Bound})
			if err != nil {
				t.Fatalf("strict check: %v", err)
			}
			if strict.Verdict != core.Fail {
				t.Fatalf("strict check unexpectedly passed")
			}
			opts := core.Options{PreemptionBound: c.Bound}.Relax(tc.relaxed...)
			relaxed, err := core.Check(c.Subject, c.Test, opts)
			if err != nil {
				t.Fatalf("relaxed check: %v", err)
			}
			if relaxed.Verdict != core.Pass {
				t.Fatalf("relaxed check still fails: %v", relaxed.Violation)
			}
		})
	}
}

// TestRelaxedResultsRecordedAtSource: a relaxed operation's result is
// replaced where the execution records it. With Count() relaxed, the
// executions of cause H's test, with a final Count() added for the teardown
// thread, are those of the strict run, in the same order, with exactly the
// Count() returns reading the wildcard; without Relax, OutcomeHistory keeps
// every raw result. The phase statistics of the
// relaxed H, I and J checks are pinned to what they were when the wildcard
// was applied to each history instead.
func TestRelaxedResultsRecordedAtSource(t *testing.T) {
	c := findCause(t, bench.CauseH)
	count := c.Test.Rows[1][0]
	test := &core.Test{Init: c.Test.Init, Rows: c.Test.Rows, Final: []core.Op{count}}
	collect := func(opts core.Options) [][]sched.OpEvent {
		var all [][]sched.OpEvent
		_, err := core.ForEachExecution(c.Subject, test, opts, false, func(out *sched.Outcome) bool {
			h, err := core.OutcomeHistory(out)
			if err != nil {
				t.Fatalf("history: %v", err)
			}
			for i, e := range h.Events {
				if e.Result != out.Events[i].Result {
					t.Fatalf("history result %q differs from the recorded %q", e.Result, out.Events[i].Result)
				}
			}
			all = append(all, out.Clone().Events)
			return true
		})
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		return all
	}
	opts := core.Options{PreemptionBound: c.Bound, Workers: 1}
	strict, relaxed := collect(opts), collect(opts.Relax("Count()"))
	if len(strict) != len(relaxed) {
		t.Fatalf("%d executions strict, %d relaxed", len(strict), len(relaxed))
	}
	counts, final := 0, 0
	for i := range strict {
		if len(strict[i]) != len(relaxed[i]) {
			t.Fatalf("execution %d: %v strict, %v relaxed", i, strict[i], relaxed[i])
		}
		for j, e := range strict[i] {
			r := relaxed[i][j]
			isCount := e.Kind == sched.EvReturn && e.Op == "Count()"
			if e.Result == core.RelaxedResult {
				t.Fatalf("execution %d: the strict run recorded the wildcard for %s", i, e.Op)
			}
			if isCount {
				counts++
				if int(e.Thread)-1 == test.FinalThread() {
					final++
				}
				e.Result = core.RelaxedResult
			}
			if r != e {
				t.Fatalf("execution %d, event %d: relaxed %+v, want %+v", i, j, r, e)
			}
		}
	}
	if counts == final || final != len(strict) {
		t.Fatalf("%d Count() returns, %d of them in the teardown, over %d executions", counts, final, len(strict))
	}

	for _, tc := range []struct {
		cause   bench.Cause
		relaxed string
		p1, p2  core.PhaseStats
	}{
		{bench.CauseH, "Count()", core.PhaseStats{Executions: 3, Decisions: 5, Histories: 3},
			core.PhaseStats{Executions: 216, Decisions: 5068, Histories: 15, Pruned: 174, DedupHits: 201}},
		{bench.CauseI, "Count()", core.PhaseStats{Executions: 3, Decisions: 5, Histories: 3},
			core.PhaseStats{Executions: 83, Decisions: 1133, Histories: 20, Pruned: 48, DedupHits: 63}},
		{bench.CauseJ, "TryTake()", core.PhaseStats{Executions: 4, Decisions: 9, Histories: 4},
			core.PhaseStats{Executions: 214, Decisions: 4783, Histories: 25, Pruned: 106, DedupHits: 189}},
	} {
		c := findCause(t, tc.cause)
		res, err := core.Check(c.Subject, c.Test, core.Options{PreemptionBound: c.Bound}.Relax(tc.relaxed))
		if err != nil {
			t.Fatalf("%s: %v", tc.cause, err)
		}
		res.Phase1.Duration, res.Phase2.Duration = 0, 0
		if res.Verdict != core.Pass || res.Phase1 != tc.p1 || res.Phase2 != tc.p2 {
			t.Errorf("%s relaxed: %v, phase 1 %+v, phase 2 %+v; want PASS, %+v, %+v", tc.cause, res.Verdict, res.Phase1, res.Phase2, tc.p1, tc.p2)
		}
	}
}

// TestRelaxedNameMustNameAnOperation: a relaxed name that is no operation's
// display name relaxes nothing, so every entry point that knows the subject
// refuses it before running anything. On cause H, "Count" (no parentheses)
// is refused with an *OptionsError naming RelaxedOps and the name, and
// "Count()" is accepted (TestRelaxedResultsRecordedAtSource pins its
// verdict and statistics).
func TestRelaxedNameMustNameAnOperation(t *testing.T) {
	c := findCause(t, bench.CauseH)
	base := core.Options{PreemptionBound: c.Bound, Workers: 1}
	good := base.Relax("Count()")
	spec, _, err := core.SynthesizeSpec(c.Subject, c.Test, good)
	if err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	plan, err := core.PlanUnits(c.Subject, c.Test, good, nil, 0)
	if err != nil || len(plan.Units) == 0 {
		t.Fatalf("plan: %v", err)
	}
	entries := []struct {
		name string
		run  func(core.Options) error
	}{
		{"Check", func(o core.Options) error {
			_, err := core.Check(c.Subject, c.Test, o)
			return err
		}},
		{"CheckAgainstSpec", func(o core.Options) error {
			_, err := core.CheckAgainstSpec(c.Subject, c.Test, spec, o)
			return err
		}},
		{"RandomCheck", func(o core.Options) error {
			_, err := core.RandomCheck(c.Subject, nil, core.RandomOptions{Options: o, Rows: 2, Cols: 1, Samples: 1, Seed: 1})
			return err
		}},
		{"PlanUnits", func(o core.Options) error {
			_, err := core.PlanUnits(c.Subject, c.Test, o, nil, 0)
			return err
		}},
		{"CheckUnit", func(o core.Options) error {
			_, err := core.CheckUnit(c.Subject, c.Test, o, plan.Units[0], plan.Spec, nil)
			return err
		}},
	}
	for _, e := range entries {
		if err := e.run(good); err != nil {
			t.Errorf("%s with Count() relaxed: %v", e.name, err)
		}
		err := e.run(base.Relax("Count"))
		var oe *core.OptionsError
		if !errors.As(err, &oe) || oe.Field != "RelaxedOps" || !strings.Contains(oe.Reason, `"Count"`) {
			t.Errorf("%s with Count relaxed: %v, want an *OptionsError naming RelaxedOps and \"Count\"", e.name, err)
		}
	}
}

// TestRelaxedOpsDoNotMaskRealBugs: relaxing an unrelated observer must not
// hide a genuine defect — Lazy(Pre)'s double factory execution is still
// caught with IsValueCreated relaxed.
func TestRelaxedOpsDoNotMaskRealBugs(t *testing.T) {
	c := findCause(t, bench.CauseF)
	opts := core.Options{PreemptionBound: c.Bound}.Relax("IsValueCreated()")
	res, err := core.Check(c.Subject, c.Test, opts)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != core.Fail {
		t.Fatalf("relaxing IsValueCreated hid the double-initialization bug")
	}
}

// TestRelaxedOpsDoNotMaskBlockingViolations: wildcarding results cannot
// excuse erroneous blocking — cause K (the unwoken Take) still fails even
// with every result relaxed, because stuck-witness matching is about
// pending operations, not values.
func TestRelaxedOpsDoNotMaskBlockingViolations(t *testing.T) {
	c := findCause(t, bench.CauseK)
	opts := core.Options{PreemptionBound: c.Bound}.Relax("Take()", "CompleteAdding()")
	res, err := core.Check(c.Subject, c.Test, opts)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != core.Fail {
		t.Fatalf("relaxed results excused a blocking violation")
	}
	if res.Violation.Kind != core.StuckNoWitness {
		t.Fatalf("kind = %v, want StuckNoWitness", res.Violation.Kind)
	}
}

// TestRelaxedBagRandomSweep: with the weak observers relaxed, the bag
// passes a random sweep that fails strictly.
func TestRelaxedBagRandomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	bag, entry, ok := bench.Find("ConcurrentBag")
	if !ok {
		t.Fatal("bag not found")
	}
	opts := core.Options{PreemptionBound: entry.Bound}.Relax("Count()", "IsEmpty()", "ToArray()", "TryPeek()", "TryTake()")
	rows, cols, _ := sweepDims(t, bag.Name)
	sum, err := core.RandomCheck(bag, nil, core.RandomOptions{
		Rows: rows, Cols: cols, Samples: 4, Seed: 11, Options: opts,
	})
	if err != nil {
		t.Fatalf("randomcheck: %v", err)
	}
	if sum.Failed > 0 {
		t.Fatalf("relaxed bag still failed %d tests: %v", sum.Failed, sum.FirstFailure.Violation)
	}
}
