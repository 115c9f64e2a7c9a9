package bench

import (
	"testing"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
)

// crosscheckModels maps the cause cases with an executable monitor model to
// that model: Fig. 1 (cause B, BlockingCollection) is a FIFO queue, Fig. 9
// (cause A, ManualResetEvent) is a manual-reset event.
var crosscheckModels = map[Cause]string{
	CauseA: "mre",
	CauseB: "queue",
}

// TestMonitorAgreesWithSpecBackend asserts that the two phase-2 witness
// backends — phase-1 spec-set lookup and the monitor's model-replay search —
// reach the same verdict on every history the explorer emits for the Fig. 1
// and Fig. 9 scenarios under Definition 3. The monitor's classic mode has no
// spec-side counterpart; internal/oracle holds it to Definition 1.
func TestMonitorAgreesWithSpecBackend(t *testing.T) {
	for _, cc := range CauseCases() {
		name, ok := crosscheckModels[cc.Cause]
		if !ok {
			continue
		}
		cc := cc
		t.Run(string(cc.Cause)+"-"+name, func(t *testing.T) {
			model, ok := monitor.Builtin(name)
			if !ok {
				t.Fatalf("no builtin model %q", name)
			}
			opts := core.Options{PreemptionBound: cc.Bound}
			spec, _, err := core.SynthesizeSpec(cc.Subject, cc.Test, opts)
			if err != nil {
				t.Fatal(err)
			}
			histories := 0
			err = core.ExploreHistories(cc.Subject, cc.Test, opts, func(h *history.History) bool {
				histories++
				if !h.Stuck {
					_, specOK := spec.WitnessFull(h)
					out, merr := monitor.Check(model, h, monitor.Options{})
					if merr != nil {
						t.Fatalf("monitor: %v\nhistory:\n%s", merr, h)
					}
					if specOK != out.Linearizable {
						t.Errorf("backends disagree on complete history (spec=%v monitor=%v):\n%s",
							specOK, out.Linearizable, h)
						return false
					}
					return true
				}
				// Generalized treatment: each pending op needs a stuck witness.
				specOK := true
				for _, e := range h.Pending() {
					if _, ok := spec.WitnessStuck(h, e); !ok {
						specOK = false
						break
					}
				}
				out, merr := monitor.Check(model, h, monitor.Options{})
				if merr != nil {
					t.Fatalf("monitor: %v\nhistory:\n%s", merr, h)
				}
				if specOK != out.Linearizable {
					t.Errorf("backends disagree on stuck history (spec=%v monitor=%v):\n%s",
						specOK, out.Linearizable, h)
					return false
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if histories == 0 {
				t.Fatal("explorer emitted no histories")
			}
			t.Logf("agreed on %d distinct histories", histories)
		})
	}
}

// TestCheckWithMonitorFindsCauses asserts that the monitor backend finds the
// seeded Fig. 1 and Fig. 9 violations end to end, with no phase-1 serial
// enumeration, and that the corrected counterparts pass the same tests.
func TestCheckWithMonitorFindsCauses(t *testing.T) {
	for _, cc := range CauseCases() {
		name, ok := crosscheckModels[cc.Cause]
		if !ok {
			continue
		}
		cc := cc
		t.Run(string(cc.Cause)+"-"+name, func(t *testing.T) {
			model, _ := monitor.Builtin(name)
			opts := core.RefOptions{Options: core.Options{PreemptionBound: cc.Bound}}
			res, err := core.CheckWithMonitor(cc.Subject, model, cc.Test, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != core.Fail {
				t.Fatalf("expected the monitor backend to find the %s violation", cc.Cause)
			}
			if res.Violation.Kind != cc.WantKind {
				t.Fatalf("violation kind = %v, want %v", res.Violation.Kind, cc.WantKind)
			}
			if res.Phase1.Executions != 0 {
				t.Fatalf("monitor check must not run phase 1 (got %d executions)", res.Phase1.Executions)
			}
			if cc.Counterpart == nil {
				return
			}
			good, err := core.CheckWithMonitor(cc.Counterpart, model, cc.Test, opts)
			if err != nil {
				t.Fatal(err)
			}
			if good.Verdict != core.Pass {
				t.Fatalf("corrected %s must pass under the monitor backend: %v",
					cc.Counterpart.Name, good.Violation)
			}
		})
	}
}
