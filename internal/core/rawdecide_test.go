package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// TestRawDecisionMatchesMaterialized holds phase 2's decision from raw events
// to specDecide on the materialized history's operations, on every distinct
// history phase 2 explores for every directed cause case, and for the three
// cases whose intentional nondeterminism a relaxed operation excuses
// (Section 6). The operations must equal History.Ops, the verdicts must
// agree, and a violation must carry the materialized history, the kind and
// the pending operation the reference names.
func TestRawDecisionMatchesMaterialized(t *testing.T) {
	type run struct {
		name    string
		c       bench.CauseCase
		relaxed []string
	}
	var runs []run
	for _, c := range bench.CauseCases() {
		runs = append(runs, run{string(c.Cause), c, nil})
		if relaxed, ok := map[bench.Cause]string{bench.CauseH: "Count()", bench.CauseI: "Count()", bench.CauseJ: "TryTake()"}[c.Cause]; ok {
			runs = append(runs, run{string(c.Cause) + "-relaxed", c, []string{relaxed}})
		}
		if c.Cause == bench.CauseK {
			// A second Take: both can stay blocked, so a stuck history has
			// two pending operations, each without a stuck witness when
			// CompleteAdding returned and each with one when it is not there.
			two, alone := c, c
			take := c.Test.Rows[0]
			two.Test = &core.Test{Rows: [][]core.Op{take, take, c.Test.Rows[1]}}
			alone.Test = &core.Test{Rows: [][]core.Op{take, take}}
			runs = append(runs, run{"K-two-takes", two, nil}, run{"two-takes", alone, nil})
		}
	}
	var histories, stuck, multiPending, multiPendingViolations, violations, relaxedHistories int
	for _, r := range runs {
		opts := core.Options{PreemptionBound: r.c.Bound}.Relax(r.relaxed...)
		spec, _, err := core.SynthesizeSpec(r.c.Subject, r.c.Test, opts)
		if err != nil {
			t.Fatalf("%s: phase 1: %v", r.name, err)
		}
		raw, ref := core.DecisionPaths(spec, opts)
		seen := map[string]bool{}
		_, err = core.ForEachExecution(r.c.Subject, r.c.Test, opts, false, func(out *sched.Outcome) bool {
			key := fmt.Sprint(out.Events, out.Stuck)
			if seen[key] {
				return true
			}
			seen[key] = true
			h, ok, pending, refErr := ref(out)
			ops, v, err := raw(out)
			if err != nil || refErr != nil {
				t.Fatalf("%s: raw error %v, reference error %v", r.name, err, refErr)
			}
			if want := h.Ops(); !reflect.DeepEqual(ops, want) {
				t.Fatalf("%s: operations from raw events\n%v\ndiffer from the materialized history's\n%v", r.name, ops, want)
			}
			histories++
			if len(r.relaxed) > 0 {
				relaxedHistories++
			}
			if out.Stuck {
				stuck++
				if len(h.Pending()) > 1 {
					multiPending++
				}
			}
			switch {
			case ok && v != nil:
				t.Fatalf("%s: raw decision found %v where the reference finds a witness in\n%s", r.name, v.Kind, h)
			case !ok && v == nil:
				t.Fatalf("%s: raw decision found a witness where the reference finds none in\n%s", r.name, h)
			case v == nil:
				return true
			}
			violations++
			if out.Stuck && len(h.Pending()) > 1 {
				multiPendingViolations++
			}
			want := core.NoWitness
			if pending != nil {
				want = core.StuckNoWitness
			}
			if v.Kind != want || !reflect.DeepEqual(v.History, h) || !reflect.DeepEqual(v.Pending, pending) {
				t.Fatalf("%s: raw violation %v (pending %v) differs from the reference's %v (pending %v) on\n%s", r.name, v.Kind, v.Pending, want, pending, h)
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: phase 2: %v", r.name, err)
		}
	}
	t.Logf("%d distinct histories (%d stuck, %d with several pending operations, %d relaxed), %d violations (%d with several pending operations)",
		histories, stuck, multiPending, relaxedHistories, violations, multiPendingViolations)
	if multiPendingViolations == 0 || multiPending == multiPendingViolations || relaxedHistories == 0 {
		t.Fatal("the cases no longer cover stuck histories with several pending operations, with and without a violation, and relaxed results")
	}
}
