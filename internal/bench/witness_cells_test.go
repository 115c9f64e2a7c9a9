package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"lineup/internal/core"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// TestLegalWitnessCells walks the legal half of the witness axis: model unset
// (phase-1 lookup decides) and set (model replay decides) × both reductions ×
// one and two exploration workers, on three passing subjects and the two
// failing cause cases that have an executable model. Within a reduction every
// cell must reproduce the sequential spec-lookup run — verdict, violation
// kind, first violating history and the phase-2 execution, history and stuck
// counts — and the reductions must agree on the verdict and the violation
// kind.
func TestLegalWitnessCells(t *testing.T) {
	type cellCase struct {
		name  string
		sub   *core.Subject
		m     *core.Test
		model string
		bound int
	}
	var cases []cellCase
	for _, c := range fastCrosscheckCases(t) {
		m, err := ParseTest(c.sub, c.test)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cellCase{c.name, c.sub, m, c.model, c.bound})
	}
	for _, cc := range CauseCases() {
		if name, ok := crosscheckModels[cc.Cause]; ok {
			cases = append(cases, cellCase{string(cc.Cause) + "-" + name, cc.Subject, cc.Test, name, cc.Bound})
		}
	}
	violation := func(r *core.Result) string {
		if r.Violation == nil {
			return "none"
		}
		return r.Violation.String() // kind, test, history, unjustified pending op
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			model, ok := monitor.Builtin(c.model)
			if !ok {
				t.Fatalf("no builtin model %q", c.model)
			}
			var first *core.Result
			for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				var base *core.Result
				for _, mod := range []*monitor.Model{nil, model} {
					for _, workers := range []int{1, 2} {
						opts := core.Options{PreemptionBound: c.bound, Reduction: red, MonitorModel: mod, Workers: workers}
						requireWrittenFormRoundTrips(t, opts)
						tag := fmt.Sprintf("reduction=%v model=%s workers=%d", red, modelName(mod), workers)
						got, err := core.Check(c.sub, c.m, opts)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if base == nil {
							base = got // spec lookup on one worker
							continue
						}
						if got.Verdict != base.Verdict || violation(got) != violation(base) {
							t.Fatalf("%s: verdict %v, violation %s\nbaseline: verdict %v, violation %s",
								tag, got.Verdict, violation(got), base.Verdict, violation(base))
						}
						g, b := got.Phase2, base.Phase2
						if g.Executions != b.Executions || g.Histories != b.Histories || g.Stuck != b.Stuck {
							t.Fatalf("%s: phase 2 ran %d executions, %d histories, %d stuck; baseline %d, %d, %d",
								tag, g.Executions, g.Histories, g.Stuck, b.Executions, b.Histories, b.Stuck)
						}
					}
				}
				if first == nil {
					first = base
				} else if base.Verdict != first.Verdict || (base.Violation != nil && base.Violation.Kind != first.Violation.Kind) {
					t.Fatalf("reduction=%v: verdict %v (%s), unreduced %v (%s)",
						red, base.Verdict, violation(base), first.Verdict, violation(first))
				}
			}
			t.Logf("verdict %v, %d executions unreduced", first.Verdict, first.Phase2.Executions)
		})
	}
}

// requireWrittenFormRoundTrips: the cell's Options, written down and read
// back, are the same Options — the model as the built-in of its name, every
// other field equal — so the cell means the same thing in a dist job file, a
// manifest or a checkpoint as it does here.
func requireWrittenFormRoundTrips(t *testing.T, o core.Options) {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatalf("writing %+v: %v", o, err)
	}
	var back core.Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("reading %s: %v", data, err)
	}
	if modelName(back.MonitorModel) != modelName(o.MonitorModel) {
		t.Fatalf("%s: the model came back as %+v", data, back.MonitorModel)
	}
	back.MonitorModel, o.MonitorModel = nil, nil
	if !reflect.DeepEqual(back, o) {
		t.Fatalf("%s read back as %+v, wrote %+v", data, back, o)
	}
}

// modelName names a cell's model, "unset" for none.
func modelName(m *monitor.Model) string {
	if m == nil {
		return "unset"
	}
	return m.Name
}
