package core_test

import (
	"testing"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// incGetter is the vocabulary shared by every counter variant, so that the
// same test matrix can run against both a model and an implementation.
type incGetter interface {
	Inc(*sched.Thread)
	Get(*sched.Thread) int
}

var (
	incAny = core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(incGetter).Inc(t)
		return collections.OK
	}}
	getAny = core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(incGetter).Get(t))
	}}
)

func modelCounter() *core.Subject {
	return &core.Subject{
		Name: "Counter(model)",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []core.Op{incAny, getAny},
	}
}

// TestFig4Counter2ClassicVsGeneralized reproduces Section 2.2.2 / Fig. 4:
// with respect to the counter specification (the executable counter model),
// Counter2's leaked lock produces a stuck history that is perfectly
// linearizable under the classic Definition 1 but is rejected by the
// generalized Definition 3.
func TestFig4Counter2ClassicVsGeneralized(t *testing.T) {
	sched.RequireNoLeaks(t)
	impl := &core.Subject{
		Name: "Counter2",
		New:  func(t *sched.Thread) any { return collections.NewCounter2(t) },
		Ops:  []core.Op{incAny, getAny},
	}
	model := monitor.CounterModel()
	// Fig. 4's scenario: thread A increments and reads; thread B's later
	// increment blocks on the leaked lock.
	m := &core.Test{Rows: [][]core.Op{{incAny, getAny}, {incAny}}}

	classic, err := core.CheckWithMonitor(impl, model, m, core.RefOptions{ClassicOnly: true})
	if err != nil {
		t.Fatalf("classic check: %v", err)
	}
	if classic.Verdict != core.Pass {
		t.Fatalf("classic linearizability should accept Counter2 (Def. 1 cannot see blocking): %v", classic.Violation)
	}

	gen, err := core.CheckWithMonitor(impl, model, m, core.RefOptions{})
	if err != nil {
		t.Fatalf("generalized check: %v", err)
	}
	if gen.Verdict != core.Fail {
		t.Fatalf("generalized linearizability should reject Counter2's stuck history")
	}
	if gen.Violation.Kind != core.StuckNoWitness {
		t.Fatalf("expected StuckNoWitness, got %v", gen.Violation.Kind)
	}
	if gen.Violation.Pending == nil || gen.Violation.Pending.Name != "Inc()" {
		t.Fatalf("expected the pending Inc to be the unjustified operation, got %v", gen.Violation.Pending)
	}
}

// TestModelCheckAcceptsCorrectImpl sanity-checks CheckAgainstModel in the
// passing direction: the correct counter against itself as model.
func TestModelCheckAcceptsCorrectImpl(t *testing.T) {
	sched.RequireNoLeaks(t)
	model := modelCounter()
	impl := &core.Subject{
		Name: "Counter",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []core.Op{incAny, getAny},
	}
	m := &core.Test{Rows: [][]core.Op{{incAny, getAny}, {incAny, getAny}}}
	res, err := core.CheckAgainstModel(impl, model, m, core.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != core.Pass {
		t.Fatalf("correct counter failed against model: %v", res.Violation)
	}
}

// TestCounter1FailsAgainstModelToo confirms that lost updates are caught in
// the model-based mode as well.
func TestCounter1FailsAgainstModelToo(t *testing.T) {
	sched.RequireNoLeaks(t)
	impl := &core.Subject{
		Name: "Counter1",
		New:  func(t *sched.Thread) any { return collections.NewCounter1(t) },
		Ops:  []core.Op{incAny, getAny},
	}
	m := &core.Test{Rows: [][]core.Op{{incAny, getAny}, {incAny}}}
	res, err := core.CheckAgainstModel(impl, modelCounter(), m, core.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != core.Fail {
		t.Fatalf("Counter1 passed against the model")
	}
}
