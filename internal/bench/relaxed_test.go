package bench_test

import (
	"runtime"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
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
		Rows: rows, Cols: cols, Samples: 4, Seed: 11, Workers: runtime.NumCPU(), Options: opts,
	})
	if err != nil {
		t.Fatalf("randomcheck: %v", err)
	}
	if sum.Failed > 0 {
		t.Fatalf("relaxed bag still failed %d tests: %v", sum.Failed, sum.FirstFailure.Violation)
	}
}
