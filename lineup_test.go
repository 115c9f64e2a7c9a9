package lineup_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lineup"
	"lineup/internal/bench"
	"lineup/internal/vsync"
)

// register is a tiny component defined directly against the public facade,
// as a library user would write it.
type register struct {
	v *vsync.Cell[int]
}

func newRegister(t *lineup.Thread) *register {
	return &register{v: vsync.NewCell(t, "register.v", 0)}
}

func (r *register) Set(t *lineup.Thread, v int) { r.v.Store(t, v) }
func (r *register) Get(t *lineup.Thread) int    { return r.v.Load(t) }

// racyAdd is the classic lost-update read-modify-write.
func (r *register) racyAdd(t *lineup.Thread) { r.v.Store(t, r.v.Load(t)+1) }

func registerSubject(withAdd bool) *lineup.Subject {
	set := lineup.Op{Method: "Set", Args: "5", Run: func(t *lineup.Thread, o any) string {
		o.(*register).Set(t, 5)
		return "ok"
	}}
	get := lineup.Op{Method: "Get", Run: func(t *lineup.Thread, o any) string {
		return fmt.Sprint(o.(*register).Get(t))
	}}
	ops := []lineup.Op{set, get}
	if withAdd {
		add := lineup.Op{Method: "Add", Args: "1", Run: func(t *lineup.Thread, o any) string {
			o.(*register).racyAdd(t)
			return "ok"
		}}
		ops = append(ops, add)
	}
	return &lineup.Subject{
		Name: "Register",
		New:  func(t *lineup.Thread) any { return newRegister(t) },
		Ops:  ops,
	}
}

// TestFacadeCheck exercises the public API end to end: an atomic register
// is linearizable; adding an unsynchronized read-modify-write breaks it.
func TestFacadeCheck(t *testing.T) {
	good := registerSubject(false)
	m := &lineup.Test{Rows: [][]lineup.Op{{good.Ops[0], good.Ops[1]}, {good.Ops[0], good.Ops[1]}}}
	res, err := lineup.Check(good, m, lineup.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != lineup.Pass {
		t.Fatalf("atomic register failed: %v", res.Violation)
	}

	bad := registerSubject(true)
	add := bad.Ops[2]
	get := bad.Ops[1]
	m2 := &lineup.Test{Rows: [][]lineup.Op{{add, get}, {add}}}
	res, err = lineup.Check(bad, m2, lineup.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != lineup.Fail || res.Violation.Kind != lineup.NoWitness {
		t.Fatalf("racy add not caught: %v", res)
	}
}

// TestFacadeReduction exercises Options.Reduction through the public API:
// the sleep-set-reduced check, the default, must return the identical verdict
// and violation while exploring no more schedules than the full one.
func TestFacadeReduction(t *testing.T) {
	if (lineup.Options{}).Reduction != lineup.ReductionSleep {
		t.Fatal("unset Options.Reduction is not sleep sets")
	}
	bad := registerSubject(true)
	add, get := bad.Ops[2], bad.Ops[1]
	m := &lineup.Test{Rows: [][]lineup.Op{{add, get}, {add}}}
	full, err := lineup.Check(bad, m, lineup.Options{ExhaustPhase2: true, Reduction: lineup.ReductionNone})
	if err != nil {
		t.Fatalf("full check: %v", err)
	}
	reduced, err := lineup.Check(bad, m, lineup.Options{
		ExhaustPhase2: true, Reduction: lineup.ReductionSleep,
	})
	if err != nil {
		t.Fatalf("reduced check: %v", err)
	}
	if full.Verdict != reduced.Verdict {
		t.Fatalf("reduction changed the verdict: %v vs %v", full.Verdict, reduced.Verdict)
	}
	if full.Violation.String() != reduced.Violation.String() {
		t.Fatalf("reduction changed the violation:\n%v\nvs\n%v", full.Violation, reduced.Violation)
	}
	if reduced.Phase2.Executions > full.Phase2.Executions {
		t.Fatalf("reduced run explored more schedules (%d) than full (%d)",
			reduced.Phase2.Executions, full.Phase2.Executions)
	}
	if reduced.Phase2.Pruned == 0 {
		t.Fatal("reduced run pruned nothing")
	}
}

// TestFacadeAutoCheckAndShrink exercises AutoCheck and Shrink through the
// facade.
func TestFacadeAutoCheckAndShrink(t *testing.T) {
	bad := registerSubject(true)
	// Reorder so Add and Get come first in the universe (AutoCheck uses
	// the first n invocations at level n).
	bad.Ops = []lineup.Op{bad.Ops[2], bad.Ops[1], bad.Ops[0]}
	auto, err := lineup.AutoCheck(bad, lineup.AutoOptions{MaxN: 2, MaxTests: 200})
	if err != nil {
		t.Fatalf("autocheck: %v", err)
	}
	if auto.Failed == nil {
		t.Fatalf("AutoCheck missed the racy add in %d tests", auto.Tests)
	}
	min, res, err := lineup.Shrink(bad, auto.Failed.Test, lineup.Options{})
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if res.Verdict != lineup.Fail {
		t.Fatalf("shrunk test passes")
	}
	if min.NumOps() > auto.Failed.Test.NumOps() {
		t.Fatalf("shrink grew the test")
	}
}

// TestNoGoroutineLeaks: executions kill their unfinished logical threads;
// thousands of checks must not accumulate goroutines (stuck executions
// park goroutines that the scheduler must unwind).
func TestNoGoroutineLeaks(t *testing.T) {
	sub, _, ok := bench.Find("SemaphoreSlim")
	if !ok {
		t.Fatal("semaphore not found")
	}
	wait, _ := sub.FindOp("Wait()")
	release, _ := sub.FindOp("Release()")
	m := &lineup.Test{Rows: [][]lineup.Op{{wait, wait}, {release}}} // mostly stuck
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := lineup.Check(sub, m, lineup.Options{}); err != nil {
			t.Fatalf("check: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestVerdictStrings covers the facade's enums.
func TestVerdictStrings(t *testing.T) {
	if lineup.Pass.String() != "PASS" || lineup.Fail.String() != "FAIL" {
		t.Fatalf("verdict strings broken")
	}
	for _, k := range []lineup.ViolationKind{lineup.Nondeterminism, lineup.NoWitness, lineup.StuckNoWitness} {
		if k.String() == "" || k.String() == "unknown violation" {
			t.Fatalf("kind %d renders %q", k, k.String())
		}
	}
}
