package bench

import (
	"errors"
	"testing"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
	"lineup/internal/subjects"
)

// fastCrosscheckCase is one explorer-driven workload of the bit-identity
// suite: a subject, a directed test, and the executable model its histories
// are checked against. The tests are chosen to emit a mix of in-fragment
// histories (unique values, successful dequeues/pops) and out-of-fragment
// ones (failed TryDequeue/TryPop, pending operations), so both the fast
// path and the fallback path are exercised on real explorer output.
type fastCrosscheckCase struct {
	name  string
	sub   *core.Subject
	test  string
	model string
	bound int
}

func fastCrosscheckCases(t *testing.T) []fastCrosscheckCase {
	t.Helper()
	find := func(name string) *core.Subject {
		for _, e := range subjects.Registry() {
			for _, s := range []*core.Subject{e.Subject, e.Pre, e.Relaxed} {
				if s != nil && s.Name == name {
					return s
				}
			}
		}
		t.Fatalf("no subject %q", name)
		return nil
	}
	return []fastCrosscheckCase{
		{"msqueue", find("MSQueue"), "Enqueue(1) TryDequeue() / Enqueue(2) TryDequeue()", "queue", 2},
		{"msqueue-empty", find("MSQueue"), "TryDequeue() Enqueue(1) / TryDequeue()", "queue", 2},
		{"elimstack", find("ElimStack"), "Push(1) TryPop() / Push(2) TryPop()", "stack", 2},
	}
}

// TestFastBackendBitIdentical asserts verdict bit-identity of the fast
// witness path on every history the explorer emits: the specialized monitor
// (with WGL fallback on ErrAmbiguous, exactly as `lineup monitor -witness
// fast` routes it) against the memoized Wing–Gong search, the unmemoized
// naive search on small histories, and the phase-1 specification set.
func TestFastBackendBitIdentical(t *testing.T) {
	totalHits, totalFallbacks := 0, 0
	run := func(t *testing.T, sub *core.Subject, m *core.Test, model *monitor.Model, bound int) {
		opts := core.Options{PreemptionBound: bound}
		spec, _, err := core.SynthesizeSpec(sub, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		kind, supported := fast.KindFor(model.Name)
		histories := 0
		err = core.ExploreHistories(sub, m, opts, func(h *history.History) bool {
			histories++
			if h.Stuck || len(h.Pending()) > 0 {
				// Outside every fast fragment: the monitor must punt, never
				// guess, so the backend's fallback is forced.
				if supported {
					if _, ferr := fast.Check(kind, h); !errors.Is(ferr, fast.ErrAmbiguous) {
						t.Errorf("fast monitor decided a non-complete history (err=%v):\n%s", ferr, h)
						return false
					}
				}
				return true
			}
			out, merr := monitor.Check(model, h, monitor.Options{})
			if merr != nil {
				t.Fatalf("monitor: %v\nhistory:\n%s", merr, h)
			}
			wgl := out.Linearizable
			fastV := wgl // what a caller computes after a fallback
			if supported {
				v, ferr := fast.Check(kind, h)
				switch {
				case ferr == nil:
					fastV = v
					totalHits++
				case errors.Is(ferr, fast.ErrAmbiguous):
					totalFallbacks++
				default:
					t.Fatalf("fast: %v\nhistory:\n%s", ferr, h)
				}
			}
			if fastV != wgl {
				t.Errorf("fast and WGL disagree (fast=%v wgl=%v):\n%s", fastV, wgl, h)
				return false
			}
			if _, specOK := spec.WitnessFull(h); specOK != wgl {
				t.Errorf("spec and WGL disagree (spec=%v wgl=%v):\n%s", specOK, wgl, h)
				return false
			}
			if len(h.Ops()) <= 6 {
				naive, nerr := monitor.NaiveCheck(model, h, monitor.Options{})
				if nerr != nil {
					t.Fatalf("naive: %v\nhistory:\n%s", nerr, h)
				}
				if naive != wgl {
					t.Errorf("naive and WGL disagree (naive=%v wgl=%v):\n%s", naive, wgl, h)
					return false
				}
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
	}
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
			run(t, cc.Subject, cc.Test, model, cc.Bound)
		})
	}
	for _, c := range fastCrosscheckCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			model, ok := monitor.Builtin(c.model)
			if !ok {
				t.Fatalf("no builtin model %q", c.model)
			}
			m, err := ParseTest(c.sub, c.test)
			if err != nil {
				t.Fatal(err)
			}
			run(t, c.sub, m, model, c.bound)
		})
	}
	if totalHits == 0 || totalFallbacks == 0 {
		t.Errorf("property suite exercised fast hits=%d fallbacks=%d; want both paths", totalHits, totalFallbacks)
	}
}
