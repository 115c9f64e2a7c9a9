package subjects_test

import (
	"testing"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
	"lineup/internal/subjects"
)

// modelWithInit folds a test's unobserved Init invocations into the model's
// initial state, so the monitor judges histories from the same starting
// point the subject was prepared in.
func modelWithInit(t *testing.T, m *monitor.Model, init []core.Op) *monitor.Model {
	if len(init) == 0 {
		return m
	}
	c := *m
	c.Init = func() string {
		st := m.Init()
		for _, op := range init {
			_, next, err := m.Step(st, op.Name())
			if err != nil {
				t.Fatalf("model %s cannot replay init op %s: %v", m.Name, op.Name(), err)
			}
			st = next
		}
		return st
	}
	return &c
}

// TestCrossCheckVerdicts re-judges every history the explorer emits for the
// corpus subjects through two independent deciders — the phase-1 spec-lookup
// path and the WGL monitor search — and requires them to agree (the oracle
// package holds the same histories to the definition). Both the correct and
// the defect-seeded variant of every family are swept, so the agreement covers
// linearizable and non-linearizable histories alike.
func TestCrossCheckVerdicts(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range subjects.Registry() {
		e := e
		for _, sub := range []*core.Subject{e.Subject, e.Pre} {
			sub := sub
			t.Run(sub.Name, func(t *testing.T) {
				opts := core.Options{PreemptionBound: e.Bound}
				model := modelWithInit(t, e.Model, e.StrictTest.Init)
				spec, _, err := core.SynthesizeSpec(sub, e.StrictTest, opts)
				if err != nil {
					t.Fatal(err)
				}
				full, stuck, disagreements := 0, 0, 0
				err = core.ExploreHistories(sub, e.StrictTest, opts, func(h *history.History) bool {
					if disagreements > 3 {
						return false
					}
					if !h.Stuck {
						full++
						_, specOK := spec.WitnessFull(h)
						out, merr := monitor.Check(model, h, monitor.Options{})
						if merr != nil {
							t.Fatalf("monitor: %v\nhistory:\n%s", merr, h)
						}
						if specOK != out.Linearizable {
							disagreements++
							t.Errorf("deciders disagree on complete history (spec=%v monitor=%v):\n%s",
								specOK, out.Linearizable, h)
						}
						return true
					}
					stuck++
					specOK := true
					for _, p := range h.Pending() {
						if _, ok := spec.WitnessStuck(h, p); !ok {
							specOK = false
							break
						}
					}
					out, merr := monitor.Check(model, h, monitor.Options{})
					if merr != nil {
						t.Fatalf("monitor: %v\nhistory:\n%s", merr, h)
					}
					if specOK != out.Linearizable {
						disagreements++
						t.Errorf("deciders disagree on stuck history (spec=%v monitor=%v):\n%s",
							specOK, out.Linearizable, h)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if full == 0 {
					t.Fatal("explorer emitted no complete histories")
				}
				t.Logf("%s: unanimous on %d complete + %d stuck histories", sub.Name, full, stuck)
			})
		}
	}
}
