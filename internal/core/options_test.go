package core_test

import (
	"errors"
	"testing"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// TestIllegalOptionsRefused walks every illegal cell of core's option matrix
// through every entry point that can receive it and requires the one
// validator's structured refusal before a single execution has run.
func TestIllegalOptionsRefused(t *testing.T) {
	sched.RequireNoLeaks(t)
	executions := 0
	sub := counterSubject()
	newCounter := sub.New
	sub.New = func(th *sched.Thread) any {
		executions++
		return newCounter(th)
	}
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc}, {get}}}
	model := monitor.CounterModel()
	spec := history.NewSpec()

	check := func(o core.Options) error { _, err := core.Check(sub, m, o); return err }
	againstSpec := func(s *history.Spec) func(core.Options) error {
		return func(o core.Options) error { _, err := core.CheckAgainstSpec(sub, m, s, o); return err }
	}
	withMonitor := func(mod *monitor.Model) func(core.Options) error {
		return func(o core.Options) error {
			_, err := core.CheckWithMonitor(sub, mod, m, core.RefOptions{Options: o})
			return err
		}
	}
	planUnits := func(o core.Options) error { _, err := core.PlanUnits(sub, m, o, nil, 1); return err }
	checkUnit := func(o core.Options) error {
		_, err := core.CheckUnit(sub, m, o, sched.WorkUnit{}, spec, nil)
		return err
	}
	randomSized := func(r core.RandomOptions) func(core.Options) error {
		return func(o core.Options) error {
			r.Options = o
			_, err := core.RandomCheck(sub, nil, r)
			return err
		}
	}
	randomCheck := randomSized(core.RandomOptions{Samples: 2})
	entries := func(fs ...func(core.Options) error) []func(core.Options) error { return fs }
	everyEntry := entries(check, againstSpec(spec), withMonitor(model), planUnits, checkUnit, randomCheck)

	cells := []struct {
		name    string
		opts    core.Options
		entries []func(core.Options) error
		field   string
	}{
		{"no model x no phase-1 spec",
			core.Options{},
			entries(againstSpec(nil), withMonitor(nil)), "MonitorModel"},
		{"leak detection x exploration workers", core.Options{DetectLeaks: true, Workers: 2}, everyEntry, "DetectLeaks"},
		{"preemption bound below NoPreemptions", core.Options{PreemptionBound: core.NoPreemptions - 5}, everyEntry, "PreemptionBound"},
		{"negative failure budget", core.Options{MaxFailures: -1}, everyEntry, "MaxFailures"},
		{"negative worker count", core.Options{Workers: -3}, everyEntry, "Workers"},
		{"negative rows", core.Options{}, entries(randomSized(core.RandomOptions{Rows: -1})), "Rows"},
		{"negative cols", core.Options{}, entries(randomSized(core.RandomOptions{Cols: -2})), "Cols"},
		{"negative samples", core.Options{}, entries(randomSized(core.RandomOptions{Samples: -3})), "Samples"},
	}
	for _, c := range cells {
		for i, entry := range c.entries {
			err := entry(c.opts)
			var oe *core.OptionsError
			if !errors.As(err, &oe) {
				t.Errorf("%s (entry %d): err = %v, want *core.OptionsError", c.name, i, err)
				continue
			}
			if oe.Field != c.field || oe.Reason == "" {
				t.Errorf("%s (entry %d): refused on field %q (%s), want field %q", c.name, i, oe.Field, oe.Reason, c.field)
			}
		}
	}
	if executions != 0 {
		t.Fatalf("%d executions ran before an illegal combination was refused", executions)
	}
}
