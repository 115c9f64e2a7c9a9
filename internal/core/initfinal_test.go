package core_test

import (
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
)

// TestFinalSequenceObservesLostUpdate: the final invocation sequence
// (Section 4.3) runs after all test threads and its results are part of the
// history — a final Get observes Counter1's lost update even when the test
// threads perform no reads themselves.
func TestFinalSequenceObservesLostUpdate(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	inc := sub.Ops[0]
	get := sub.Ops[1]
	m := &core.Test{
		Rows:  [][]core.Op{{inc}, {inc}},
		Final: []core.Op{get},
	}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Fail {
		t.Fatalf("final Get did not expose the lost update")
	}
	// The violating history's final thread index is len(Rows).
	found := false
	for _, op := range res.Violation.History.Ops() {
		if op.Thread == m.FinalThread() && op.Name == "Get()" {
			found = true
		}
	}
	if !found {
		t.Fatalf("final Get missing from the violating history")
	}
}

// TestInitSequencePreparesState: the init sequence runs unobserved before
// the test threads; a counter pre-incremented via init lets a bare Get
// return 1 in every witness.
func TestInitSequencePreparesState(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, dec := counterOps()
	_ = dec
	m := &core.Test{
		Init: []core.Op{inc},
		Rows: [][]core.Op{{get}, {inc}},
	}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Pass {
		t.Fatalf("init-prepared counter failed: %v", res.Violation)
	}
	spec, _, err := core.SynthesizeSpec(sub, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every serial history's Get must return 1 or 2 (never 0).
	for _, h := range spec.Export() {
		for _, op := range h.Ops {
			if op.Name == "Get()" && op.Result == "0" {
				t.Fatalf("init increment not applied: %v", h)
			}
		}
	}
}

// TestInitSequenceUnblocksDec: a dec that would deadlock on a fresh counter
// is fine after an init increment (no stuck histories at all).
func TestInitSequenceUnblocksDec(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, _, dec := counterOps()
	m := &core.Test{
		Init: []core.Op{inc},
		Rows: [][]core.Op{{dec}},
	}
	res := mustCheck(t, sub, m, core.Options{})
	if res.Verdict != core.Pass {
		t.Fatalf("failed: %v", res.Violation)
	}
	if res.Phase1.Stuck != 0 || res.Phase2.Stuck != 0 {
		t.Fatalf("unexpected stuck histories: %d/%d", res.Phase1.Stuck, res.Phase2.Stuck)
	}
}

// TestAutoCheckEnumerationCount: AutoCheck visits exactly 1 test at n=1 and
// 16 at n=2 for a two-invocation universe (|I_n|^(n*n)).
func TestAutoCheckEnumerationCount(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	sub.Ops = sub.Ops[:2]
	res, err := core.AutoCheck(sub, core.AutoOptions{MaxN: 2, MaxTests: 1000})
	if err != nil {
		t.Fatalf("autocheck: %v", err)
	}
	if res.Failed != nil {
		t.Fatalf("correct counter flagged: %v", res.Failed.Violation)
	}
	if res.Tests != 1+16 {
		t.Fatalf("tests = %d, want 17", res.Tests)
	}
}
