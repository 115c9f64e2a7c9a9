package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/history"
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

// TestRawSerialHistoryMatchesMaterialized holds phase 1's serial history,
// built from an execution's raw events, to history.ToSerial of the
// materialized history, on every serial execution of every directed cause
// case (the three relaxed ones too) and of each registry class's first 2x2
// test: the operations, the pending call and the key must be equal. An event
// of the setup thread and a stuck execution outside any operation must fail
// with OutcomeHistory's errors.
func TestRawSerialHistoryMatchesMaterialized(t *testing.T) {
	type run struct {
		name string
		sub  *core.Subject
		m    *core.Test
		opts core.Options
	}
	var runs []run
	for _, c := range bench.CauseCases() {
		opts := core.Options{PreemptionBound: c.Bound}
		runs = append(runs, run{string(c.Cause), c.Subject, c.Test, opts})
		if relaxed, ok := map[bench.Cause]string{bench.CauseH: "Count()", bench.CauseI: "Count()", bench.CauseJ: "TryTake()"}[c.Cause]; ok {
			runs = append(runs, run{string(c.Cause) + "-relaxed", c.Subject, c.Test, opts.Relax(relaxed)})
		}
	}
	for _, e := range bench.Registry() {
		for _, sub := range []*core.Subject{e.Subject, e.Pre} {
			if sub != nil {
				runs = append(runs, run{sub.Name, sub, core.SampleTests(sub.Ops, 2, 2, 1, 1)[0], core.Options{PreemptionBound: e.Bound}})
			}
		}
	}
	var executions, stuck int
	for _, r := range runs {
		_, err := core.ForEachSerialExecution(r.sub, r.m, r.opts, false, func(out *sched.Outcome) bool {
			got, err := core.SerialHistoryOf(out)
			h, refErr := core.OutcomeHistory(out)
			if err != nil || refErr != nil {
				t.Fatalf("%s: error %v, reference error %v", r.name, err, refErr)
			}
			want := history.ToSerial(h)
			if !reflect.DeepEqual(got.Ops, want.Ops) || !reflect.DeepEqual(got.Pending, want.Pending) || got.Key() != want.Key() {
				t.Fatalf("%s: serial history from raw events\n%s\ndiffers from the materialized history's\n%s", r.name, got, want)
			}
			executions++
			if out.Stuck {
				stuck++
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: phase 1: %v", r.name, err)
		}
	}
	t.Logf("%d serial executions (%d stuck) of %d tests", executions, stuck, len(runs))
	if stuck == 0 {
		t.Fatal("no stuck serial execution: the pending call is not covered")
	}

	call := sched.OpEvent{Thread: 1, Kind: sched.EvCall, Op: "Inc()", OpIndex: 0}
	ret := sched.OpEvent{Thread: 1, Kind: sched.EvReturn, Op: "Inc()", Result: "ok", OpIndex: 0}
	for _, tc := range []struct {
		name string
		out  sched.Outcome
		want string
	}{
		{"setup-event", sched.Outcome{Events: []sched.OpEvent{call, ret, {Thread: 0, Kind: sched.EvCall, Op: "Inc()", OpIndex: 1}}},
			"core: unexpected history event from setup thread"},
		{"stuck-outside-operations", sched.Outcome{Stuck: true, Events: []sched.OpEvent{call, ret}},
			"core: execution stuck outside any operation (constructor or init sequence blocked)"},
		{"stuck-before-any-operation", sched.Outcome{Stuck: true},
			"core: execution stuck outside any operation (constructor or init sequence blocked)"},
	} {
		_, err := core.SerialHistoryOf(&tc.out)
		_, refErr := core.OutcomeHistory(&tc.out)
		if err == nil || refErr == nil || err.Error() != tc.want || refErr.Error() != tc.want {
			t.Errorf("%s: error %v, reference error %v; want %q from both", tc.name, err, refErr, tc.want)
		}
	}
}
