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
// one, two and four exploration workers × stopping at the first violation or
// exhausting phase 2, plus the same check split into work units, planned,
// checked one by one and merged as `check -test` does, on three passing
// subjects and the two failing cause cases that have an executable model.
// Within a reduction every cell must reproduce the one-worker spec-lookup run
// that stops (or, for an exhaustive cell and every unit split, exhausts) the
// same way — verdict, violation and both phases' statistics, durations
// excepted — and the reductions must agree on the verdict and the violation
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
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			model, ok := monitor.Builtin(c.model)
			if !ok {
				t.Fatalf("no builtin model %q", c.model)
			}
			var first *core.Result
			for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				var stopping *core.Result
				for _, exhaust := range []bool{false, true} {
					var base *core.Result
					for _, mod := range []*monitor.Model{nil, model} {
						opts := core.Options{PreemptionBound: c.bound, Reduction: red, MonitorModel: mod, ExhaustPhase2: exhaust}
						cell := fmt.Sprintf("reduction=%v model=%s exhaust=%v", red, modelName(mod), exhaust)
						for _, workers := range []int{1, 2, 4} {
							opts.Workers = workers
							requireWrittenFormRoundTrips(t, opts)
							tag := fmt.Sprintf("%s workers=%d", cell, workers)
							got, err := core.Check(c.sub, c.m, opts)
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							if base == nil {
								base = got // spec lookup on one worker
								continue
							}
							requireSameCell(t, tag, got, base)
						}
						if exhaust {
							opts.Workers = 1
							requireSameCell(t, cell+" units", checkUnits(t, c.sub, c.m, opts), base)
						}
					}
					if !exhaust {
						stopping = base
					} else if base.Verdict != stopping.Verdict || violation(base) != violation(stopping) {
						t.Fatalf("reduction=%v: exhaustive verdict %v (%s), stopping %v (%s)",
							red, base.Verdict, violation(base), stopping.Verdict, violation(stopping))
					}
				}
				if first == nil {
					first = stopping
				} else if stopping.Verdict != first.Verdict || (stopping.Violation != nil && stopping.Violation.Kind != first.Violation.Kind) {
					t.Fatalf("reduction=%v: verdict %v (%s), unreduced %v (%s)",
						red, stopping.Verdict, violation(stopping), first.Verdict, violation(first))
				}
			}
			t.Logf("verdict %v, %d executions unreduced", first.Verdict, first.Phase2.Executions)
		})
	}
}

// violation is a result's violation as the CLI prints it — kind, test,
// history, unjustified pending operation — or "none".
func violation(r *core.Result) string {
	if r.Violation == nil {
		return "none"
	}
	return r.Violation.String()
}

// requireSameCell fails unless got has base's verdict, violation and phase
// statistics, durations excepted.
func requireSameCell(t *testing.T, tag string, got, base *core.Result) {
	t.Helper()
	if got.Verdict != base.Verdict || violation(got) != violation(base) {
		t.Fatalf("%s: verdict %v, violation %s\nbaseline: verdict %v, violation %s",
			tag, got.Verdict, violation(got), base.Verdict, violation(base))
	}
	for _, ph := range []struct {
		name      string
		got, want core.PhaseStats
	}{{"phase 1", got.Phase1, base.Phase1}, {"phase 2", got.Phase2, base.Phase2}} {
		ph.got.Duration, ph.want.Duration = 0, 0
		if ph.got != ph.want {
			t.Fatalf("%s: %s stats %+v, baseline %+v", tag, ph.name, ph.got, ph.want)
		}
	}
}

// checkUnits is `check -test` in process: phase 1 and the unit split, every
// unit checked on its own, the reports merged.
func checkUnits(t *testing.T, sub *core.Subject, m *core.Test, opts core.Options) *core.Result {
	t.Helper()
	plan, err := core.PlanUnits(sub, m, opts, nil, 0)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	reports := make([]*core.UnitReport, len(plan.Units))
	for i, u := range plan.Units {
		if reports[i], err = core.CheckUnit(sub, m, opts, u, plan.Spec, nil); err != nil {
			t.Fatalf("unit %d: %v", u.Seq, err)
		}
	}
	res, err := core.MergeUnitReports(sub, m, opts, plan, reports)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return res
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
