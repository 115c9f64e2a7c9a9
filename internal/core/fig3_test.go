package core_test

import (
	"fmt"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/sched"
)

// TestFig3CounterSpecSynthesis checks that phase 1, run on the correct
// counter, synthesizes exactly the behavior of the paper's Fig. 3
// specification automaton: get returns the number of completed increments
// minus decrements before it, dec blocks exactly at count zero (the
// semaphore-like missing transition), and the synthesized set is
// deterministic.
func TestFig3CounterSpecSynthesis(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, dec := counterOps()

	// Test: A = inc; get, B = dec.
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {dec}}}
	spec, stats, err := core.SynthesizeSpec(sub, m, core.Options{})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if w, bad := spec.Nondeterministic(); bad {
		t.Fatalf("counter spec nondeterministic: %v", w)
	}
	if stats.Stuck == 0 {
		t.Fatalf("expected stuck serial histories (dec first blocks, per the Fig. 3 automaton)")
	}

	check := func(h *history.SerialHistory) {
		count := 0
		for _, op := range h.Ops {
			switch op.Name {
			case "Inc()":
				count++
			case "Dec()":
				if count == 0 {
					t.Fatalf("serial dec completed at count 0: %v", h)
				}
				count--
			case "Get()":
				if op.Result != fmt.Sprint(count) {
					t.Fatalf("get returned %s at automaton count %d: %v", op.Result, count, h)
				}
			}
		}
		if h.Pending != nil {
			if h.Pending.Name != "Dec()" {
				t.Fatalf("only dec may block, got pending %s", h.Pending.Name)
			}
			if count != 0 {
				t.Fatalf("dec blocked at count %d: %v", count, h)
			}
		}
	}
	all := spec.Export()
	for _, h := range all {
		check(h)
	}
	if len(all) == 0 {
		t.Fatalf("no serial histories synthesized")
	}
}

// TestMinimalDimensions verifies the Table 2 "minimum dimension" column
// and the small-scope hypothesis of Section 5.2 ("most failures can be
// found with very small tests"): shrinking every directed root-cause test
// still fails, never grows, stays within 2 threads x 3 invocations, and is
// 1-minimal (a second shrink changes nothing). Interestingly, two of the
// paper's expository scenarios are not themselves minimal: Fig. 1's 2x2
// matrix reduces to three invocations (the victim's own Add plus the
// overlapping Add and TryTake), and the stack range-pop needs only one
// pre-pushed element.
func TestMinimalDimensions(t *testing.T) {
	sched.RequireNoLeaks(t)
	if testing.Short() {
		t.Skip("shrinking every cause is slow")
	}
	for _, c := range bench.CauseCases() {
		c := c
		t.Run(string(c.Cause), func(t *testing.T) {
			opts := core.Options{PreemptionBound: c.Bound}
			min, res, err := core.Shrink(c.Subject, c.Test, opts)
			if err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if res.Verdict != core.Fail {
				t.Fatalf("shrunk test passes")
			}
			threads, ops := min.Dim()
			if threads > 2 || ops > 3 {
				t.Fatalf("cause %s needs a %dx%d test; small-scope hypothesis violated:\n%s",
					c.Cause, threads, ops, min)
			}
			if min.NumOps() > c.Test.NumOps() {
				t.Fatalf("shrink grew the test")
			}
			// 1-minimality: a second shrink is a fixed point.
			min2, _, err := core.Shrink(c.Subject, min, opts)
			if err != nil {
				t.Fatalf("second shrink: %v", err)
			}
			if min2.NumOps() != min.NumOps() || len(min2.Init) != len(min.Init) {
				t.Fatalf("shrink is not a fixed point: %d ops -> %d ops", min.NumOps(), min2.NumOps())
			}
		})
	}
}
