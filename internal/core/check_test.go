package core_test

import (
	"fmt"
	"strings"
	"testing"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// --- counter subjects (Section 2.2 of the paper) ---

func counterOps() (inc, get, dec core.Op) {
	inc = core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter).Inc(t)
		return collections.OK
	}}
	get = core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter).Get(t))
	}}
	dec = core.Op{Method: "Dec", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter).Dec(t)
		return collections.OK
	}}
	return
}

func counterSubject() *core.Subject {
	inc, get, dec := counterOps()
	return &core.Subject{
		Name: "Counter",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []core.Op{inc, get, dec},
	}
}

func counter1Subject() *core.Subject {
	inc := core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter1).Inc(t)
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter1).Get(t))
	}}
	return &core.Subject{
		Name: "Counter1",
		New:  func(t *sched.Thread) any { return collections.NewCounter1(t) },
		Ops:  []core.Op{inc, get},
	}
}

func counter2Subject() *core.Subject {
	inc := core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter2).Inc(t)
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter2).Get(t))
	}}
	return &core.Subject{
		Name: "Counter2",
		New:  func(t *sched.Thread) any { return collections.NewCounter2(t) },
		Ops:  []core.Op{inc, get},
	}
}

func mustCheck(t *testing.T, sub *core.Subject, m *core.Test, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Check(sub, m, opts)
	if err != nil {
		t.Fatalf("Check(%s): %v", sub.Name, err)
	}
	return res
}

func TestCorrectCounterPasses(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Pass {
		t.Fatalf("correct counter failed: %v", res.Violation)
	}
	if res.Phase1.Histories == 0 {
		t.Fatalf("phase 1 recorded no serial histories")
	}
	if res.Phase2.Histories == 0 {
		t.Fatalf("phase 2 observed no histories")
	}
}

func TestCorrectCounterWithBlockingDecPasses(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Dec blocks while the count is zero; serial executions can get stuck,
	// and the stuck concurrent histories must find their stuck serial
	// witnesses (generalized linearizability, Definitions 2 and 3).
	sub := counterSubject()
	inc, _, dec := counterOps()
	m := &core.Test{Rows: [][]core.Op{{dec}, {inc, dec}}}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Pass {
		t.Fatalf("blocking counter failed: %v", res.Violation)
	}
	if res.Phase1.Stuck == 0 {
		t.Fatalf("expected stuck serial histories (dec before inc blocks)")
	}
	if res.Phase2.Stuck == 0 {
		t.Fatalf("expected stuck concurrent histories")
	}
}

func TestCounter1FailsLostUpdate(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Section 2.2.1: two unprotected increments can be lost; a subsequent
	// get observes 1, which no serial witness allows.
	sub := counter1Subject()
	inc := sub.Ops[0]
	get := sub.Ops[1]
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Fail {
		t.Fatalf("Counter1 unexpectedly passed")
	}
	if res.Violation.Kind != core.NoWitness {
		t.Fatalf("expected NoWitness violation, got %v", res.Violation.Kind)
	}
	if !strings.Contains(res.Violation.String(), "no serial witness") {
		t.Fatalf("violation report missing kind: %s", res.Violation)
	}
}

func TestCounter2SynthesizedSpecPasses(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Section 2.2.2 nuance: Counter2's leaked lock makes later operations
	// block *deterministically* as a function of the serial history, so the
	// specification synthesized in phase 1 itself models the wedged object
	// and Check passes. The bug is caught by checking against a reference
	// model instead (TestCounter2FailsAgainstModel); the paper uses
	// Counter2 to motivate the generalized definition with respect to a
	// given specification (Fig. 3), not specification synthesis.
	sub := counter2Subject()
	inc := sub.Ops[0]
	get := sub.Ops[1]
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Pass {
		t.Fatalf("expected synthesized-spec pass for Counter2, got %v", res.Violation)
	}
	if res.Phase1.Stuck == 0 {
		t.Fatalf("expected stuck serial histories from the leaked lock")
	}
}

func TestShrinkMinimizesCounter1(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	inc := sub.Ops[0]
	get := sub.Ops[1]
	m := &core.Test{Rows: [][]core.Op{{inc, get, inc}, {get, inc, get}, {inc, inc, get}}}
	min, res, err := core.Shrink(sub, m, core.Options{})
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if res.Verdict != core.Fail {
		t.Fatalf("shrunk test passes")
	}
	threads, ops := min.Dim()
	if threads > 2 || ops > 2 {
		t.Fatalf("expected shrink to at most 2x2, got %dx%d:\n%s", threads, ops, min)
	}
	if min.NumOps() > 3 {
		t.Fatalf("expected at most 3 ops after shrinking, got %d", min.NumOps())
	}
}

func TestAutoCheckFindsCounter1(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	res, err := core.AutoCheck(sub, core.AutoOptions{MaxN: 2, MaxTests: 100})
	if err != nil {
		t.Fatalf("autocheck: %v", err)
	}
	if res.Failed == nil {
		t.Fatalf("AutoCheck did not find the Counter1 bug in %d tests", res.Tests)
	}
}

func TestAutoCheckPassesCorrectCounterWithinBudget(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	sub.Ops = sub.Ops[:2] // inc, get only: keep the budget small
	res, err := core.AutoCheck(sub, core.AutoOptions{MaxN: 2, MaxTests: 20})
	if err != nil {
		t.Fatalf("autocheck: %v", err)
	}
	if res.Failed != nil {
		t.Fatalf("AutoCheck flagged the correct counter: %v", res.Failed.Violation)
	}
	if !res.Exhausted && res.Tests < 17 {
		t.Fatalf("expected to exhaust n=1 and n=2 tests, ran %d", res.Tests)
	}
}

func TestRandomCheckFindsCounter1(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	sum, err := core.RandomCheck(sub, nil, core.RandomOptions{
		Rows: 2, Cols: 2, Samples: 30, Seed: 1, StopAtFirstFailure: true,
	})
	if err != nil {
		t.Fatalf("randomcheck: %v", err)
	}
	if sum.FirstFailure == nil {
		t.Fatalf("RandomCheck found no violation in 30 samples")
	}
}

// TestRandomCheckParallelMatchesSequentialVerdicts: a RandomCheck at Workers
// 2 and 4 — tests side by side, and with fewer samples than workers each
// test's exploration shared, split from its first execution on — gives the
// Workers 1 run's summary and, test by test, its results apart from Duration.
func TestRandomCheckParallelMatchesSequentialVerdicts(t *testing.T) {
	sched.RequireNoLeaks(t)
	defer core.SetRecruitAfter(1)()
	sub := counter1Subject()
	for _, samples := range []int{10, 2} {
		run := func(workers int) *core.RandomSummary {
			sum, err := core.RandomCheck(sub, nil, core.RandomOptions{Rows: 2, Cols: 2, Samples: samples, Seed: 7,
				Options: core.Options{Workers: workers}})
			if err != nil {
				t.Fatalf("samples=%d workers=%d: %v", samples, workers, err)
			}
			return sum
		}
		seq := run(1)
		if samples == 10 && seq.Failed == 0 {
			t.Fatal("no failing test among 10; the fixture no longer compares violations")
		}
		for _, workers := range []int{2, 4} {
			par := run(workers)
			tag := fmt.Sprintf("samples=%d workers=%d", samples, workers)
			if par.Passed != seq.Passed || par.Failed != seq.Failed || par.StuckTests != seq.StuckTests ||
				par.SerialHistAvg != seq.SerialHistAvg || par.SerialHistMax != seq.SerialHistMax {
				t.Fatalf("%s: summary %+v, sequential %+v", tag, par, seq)
			}
			for i := range seq.Results {
				requireSameResult(t, fmt.Sprintf("%s test %d", tag, i), par.Results[i], seq.Results[i])
			}
		}
	}
}
