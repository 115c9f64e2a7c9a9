package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/faultinject"
	"lineup/internal/history"
	"lineup/internal/sched"
)

// distCheck runs the full distributed path in-process: plan, check every
// unit independently, and merge. Reports are handed to the merge in reverse
// completion order to prove the merge is order-independent.
func distCheck(sub *core.Subject, m *core.Test, opts core.Options, depth int) (*core.Result, error) {
	plan, err := core.PlanUnits(sub, m, opts, nil, depth)
	if err != nil {
		return nil, err
	}
	reports := make([]*core.UnitReport, 0, len(plan.Units))
	for _, u := range plan.Units {
		rep, err := core.CheckUnit(sub, m, opts, u, plan.Spec, nil)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	for i, j := 0, len(reports)-1; i < j; i, j = i+1, j-1 {
		reports[i], reports[j] = reports[j], reports[i]
	}
	return core.MergeUnitReports(sub, m, opts, plan, reports)
}

// firstLine strips the stack dump panics append to error strings; stacks
// differ across runs, the first line does not.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// requireSameResult asserts got is bit-identical to want up to phase
// durations (the merge does no wall-clock accounting) and panic stacks.
func requireSameResult(t *testing.T, tag string, got, want *core.Result) {
	t.Helper()
	got.Phase1.Duration, want.Phase1.Duration = 0, 0
	got.Phase2.Duration, want.Phase2.Duration = 0, 0
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict %v, sequential %v", tag, got.Verdict, want.Verdict)
	}
	if got.Phase1 != want.Phase1 {
		t.Fatalf("%s: phase 1 stats %+v, sequential %+v", tag, got.Phase1, want.Phase1)
	}
	if got.Phase2 != want.Phase2 {
		t.Fatalf("%s: phase 2 stats %+v, sequential %+v", tag, got.Phase2, want.Phase2)
	}
	gv, wv := got.Violation, want.Violation
	if (gv == nil) != (wv == nil) {
		t.Fatalf("%s: violation %v, sequential %v", tag, gv, wv)
	}
	if gv != nil {
		gj, _ := json.Marshal(gv)
		wj, _ := json.Marshal(wv)
		if string(gj) != string(wj) {
			t.Fatalf("%s: violation differs:\n got %s\nwant %s", tag, gj, wj)
		}
	}
	if len(got.Failures) != len(want.Failures) {
		t.Fatalf("%s: %d failures, sequential %d", tag, len(got.Failures), len(want.Failures))
	}
	for i := range got.Failures {
		g, w := got.Failures[i], want.Failures[i]
		if g.Kind != w.Kind || g.Message != w.Message || fmt.Sprint(g.Schedule) != fmt.Sprint(w.Schedule) {
			t.Fatalf("%s: failure %d differs:\n got %s\nwant %s", tag, i, g, w)
		}
	}
}

// TestDistMatchesSequentialPass: the merged distributed result on passing
// subjects (including one whose test produces stuck histories) is
// bit-identical to the sequential exhaustive check, across reductions,
// and split depths.
func TestDistMatchesSequentialPass(t *testing.T) {
	sched.RequireNoLeaks(t)
	inc, get, dec := counterOps()
	cases := []struct {
		name string
		m    *core.Test
		opts core.Options
	}{
		{"plain", &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}, core.Options{}},
		{"stuck", &core.Test{Rows: [][]core.Op{{dec}, {inc, dec}}}, core.Options{}},
		{"reduction", &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}, core.Options{Reduction: sched.ReductionSleep}},
	}
	for _, tc := range cases {
		sub := counterSubject()
		seqOpts := tc.opts
		seqOpts.ExhaustPhase2 = true
		want := mustCheck(t, sub, tc.m, seqOpts)
		if want.Verdict != core.Pass {
			t.Fatalf("%s: fixture does not pass: %v", tc.name, want.Violation)
		}
		for _, depth := range []int{1, 2} {
			got, err := distCheck(sub, tc.m, tc.opts, depth)
			if err != nil {
				t.Fatalf("%s depth=%d: distCheck: %v", tc.name, depth, err)
			}
			requireSameResult(t, fmt.Sprintf("%s depth=%d", tc.name, depth), got, want)
		}
	}
}

// TestDistMatchesSequentialFail: on the Counter1 lost update the merged
// verdict and the regenerated first violation are bit-identical to the
// sequential exhaustive check — and the violation also equals the one the
// non-exhaustive sequential check stops at, proving the (unit, visit)
// ordering reproduces the sequential first-violation position.
func TestDistMatchesSequentialFail(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	inc, get := sub.Ops[0], sub.Ops[1]
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		opts := core.Options{Reduction: red}
		seqOpts := opts
		seqOpts.ExhaustPhase2 = true
		want := mustCheck(t, sub, m, seqOpts)
		first := mustCheck(t, sub, m, opts)
		if want.Verdict != core.Fail || first.Verdict != core.Fail {
			t.Fatalf("red=%v: Counter1 fixture does not fail", red)
		}
		wj, _ := json.Marshal(want.Violation)
		fj, _ := json.Marshal(first.Violation)
		if string(wj) != string(fj) {
			t.Fatalf("red=%v: exhaustive and first-stop violations differ:\n%s\n%s", red, wj, fj)
		}
		for _, depth := range []int{1, 2} {
			got, err := distCheck(sub, m, opts, depth)
			if err != nil {
				t.Fatalf("red=%v depth=%d: distCheck: %v", red, depth, err)
			}
			requireSameResult(t, fmt.Sprintf("red=%v depth=%d", red, depth), got, want)
		}
	}
}

// distHarness wraps the correct counter with deterministic injected panics
// (faults fire exactly when two operations overlap, a pure function of the
// schedule) so distributed and sequential runs see the same failing
// executions.
func distHarness(t *testing.T) (*core.Subject, *core.Test) {
	t.Helper()
	sched.RequireNoLeaks(t)
	h := faultinject.New(faultinject.KindPanic)
	t.Cleanup(h.Release)
	sub := h.Wrap(counterSubject())
	inc, _ := sub.FindOp("Inc()")
	get, _ := sub.FindOp("Get()")
	return sub, &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
}

// TestDistFailureSemantics: the merge applies Options.MaxFailures with the
// sequential precedence — contained failures merge into the same Failures
// list, a zero budget reproduces the sequential first-failure abort error,
// and an overflowing budget reproduces the same *TooManyFailuresError.
func TestDistFailureSemantics(t *testing.T) {
	sub, m := distHarness(t)
	contained := core.Options{MaxFailures: 10000}
	seqOpts := contained
	seqOpts.ExhaustPhase2 = true
	want := mustCheck(t, sub, m, seqOpts)
	if len(want.Failures) < 3 {
		t.Fatalf("fixture produced only %d failures; budget cases would be vacuous", len(want.Failures))
	}
	got, err := distCheck(sub, m, contained, 2)
	if err != nil {
		t.Fatalf("contained distCheck: %v", err)
	}
	requireSameResult(t, "contained", got, want)

	_, seqErr := core.Check(sub, m, core.Options{ExhaustPhase2: true})
	_, distErr := distCheck(sub, m, core.Options{}, 2)
	if seqErr == nil || distErr == nil {
		t.Fatalf("strict runs did not abort: seq=%v dist=%v", seqErr, distErr)
	}
	if firstLine(seqErr.Error()) != firstLine(distErr.Error()) {
		t.Fatalf("strict abort differs:\n seq  %s\n dist %s", firstLine(seqErr.Error()), firstLine(distErr.Error()))
	}

	over := core.Options{MaxFailures: 2, ExhaustPhase2: true}
	var seqTM, distTM *core.TooManyFailuresError
	if _, err := core.Check(sub, m, over); !errors.As(err, &seqTM) {
		t.Fatalf("sequential over-budget run: %v", err)
	}
	if _, err := distCheck(sub, m, core.Options{MaxFailures: 2}, 2); !errors.As(err, &distTM) {
		t.Fatalf("distributed over-budget run: %v", err)
	}
	if seqTM.Limit != distTM.Limit || len(seqTM.Failures) != len(distTM.Failures) {
		t.Fatalf("budget errors differ: seq %+v dist %+v", seqTM, distTM)
	}
	for i := range seqTM.Failures {
		s, d := seqTM.Failures[i], distTM.Failures[i]
		if s.Kind != d.Kind || s.Message != d.Message || fmt.Sprint(s.Schedule) != fmt.Sprint(d.Schedule) {
			t.Fatalf("budget failure %d differs:\n seq  %s\n dist %s", i, s, d)
		}
	}
}

// TestCheckUnitIdempotent: replaying a unit yields a byte-identical report —
// the property that makes at-least-once lease reassignment safe.
func TestCheckUnitIdempotent(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}
	opts := core.Options{Reduction: sched.ReductionSleep}
	plan, err := core.PlanUnits(sub, m, opts, nil, 2)
	if err != nil {
		t.Fatalf("PlanUnits: %v", err)
	}
	for _, u := range plan.Units {
		r1, err := core.CheckUnit(sub, m, opts, u, plan.Spec, nil)
		if err != nil {
			t.Fatalf("CheckUnit(%d): %v", u.Seq, err)
		}
		r2, err := core.CheckUnit(sub, m, opts, u, plan.Spec, nil)
		if err != nil {
			t.Fatalf("CheckUnit(%d) replay: %v", u.Seq, err)
		}
		b1, _ := json.Marshal(r1)
		b2, _ := json.Marshal(r2)
		if string(b1) != string(b2) {
			t.Fatalf("unit %d replay not byte-identical:\n%s\n%s", u.Seq, b1, b2)
		}
	}
}

// TestCheckUnitTickAbort: a false tick (revoked lease) aborts the unit with
// ErrUnitAborted instead of returning a partial report.
func TestCheckUnitTickAbort(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}
	plan, err := core.PlanUnits(sub, m, core.Options{}, nil, 1)
	if err != nil {
		t.Fatalf("PlanUnits: %v", err)
	}
	aborted := false
	for _, u := range plan.Units {
		ticks := 0
		rep, err := core.CheckUnit(sub, m, core.Options{}, u, plan.Spec, func() bool {
			ticks++
			return ticks <= 1
		})
		if err == nil {
			continue // single-execution unit: never re-ticked
		}
		if !errors.Is(err, core.ErrUnitAborted) || rep != nil {
			t.Fatalf("unit %d: rep=%v err=%v, want nil report with ErrUnitAborted", u.Seq, rep, err)
		}
		aborted = true
	}
	if !aborted {
		t.Fatal("no unit was large enough to abort; fixture too small")
	}
}

// TestMergeNondetAndCoverage: the merge propagates a phase-1 nondeterminism
// verdict without any units, and rejects incomplete report sets.
func TestMergeNondetAndCoverage(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
	v := &core.Violation{Kind: core.Nondeterminism, Test: m, Nondet: &history.NondetWitness{}}
	res, err := core.MergeUnitReports(sub, m, core.Options{}, &core.UnitPlan{Nondet: v}, nil)
	if err != nil || res.Verdict != core.Fail || res.Violation != v {
		t.Fatalf("nondet plan merge: res=%v err=%v", res, err)
	}
	plan, err := core.PlanUnits(sub, m, core.Options{}, nil, 2)
	if err != nil {
		t.Fatalf("PlanUnits: %v", err)
	}
	if len(plan.Units) < 2 {
		t.Fatalf("fixture split into %d units; incompleteness case is vacuous", len(plan.Units))
	}
	rep, err := core.CheckUnit(sub, m, core.Options{}, plan.Units[0], plan.Spec, nil)
	if err != nil {
		t.Fatalf("CheckUnit: %v", err)
	}
	if _, err := core.MergeUnitReports(sub, m, core.Options{}, plan, []*core.UnitReport{rep}); err == nil {
		t.Fatal("merge accepted an incomplete report set")
	}
	dup := []*core.UnitReport{rep}
	for len(dup) < len(plan.Units) {
		dup = append(dup, rep)
	}
	if _, err := core.MergeUnitReports(sub, m, core.Options{}, plan, dup); err == nil {
		t.Fatal("merge accepted duplicate reports for one unit")
	}
}
