package core

import (
	_ "unsafe" // for go:linkname

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// WithCoverage returns o with Generate's coverage accumulator set to c, so
// that external tests can read what a check adds to it.
func WithCoverage(o Options, c *Coverage) Options {
	o.coverage = c
	return o
}

// WithExecutionBudget returns o with the per-phase execution budget set to n
// in place of the two million of phaseBudget. The budget does not travel: a job file, manifest or
// checkpoint never records it.
func WithExecutionBudget(o Options, n int) Options {
	o.budget = n
	return o
}

// schedRecruitAfter is sched's unexported recruiting mark (the number of
// executions a phase-2 exploration runs alone before it starts its helpers),
// reached by name so that neither package grows a knob for it.
//
//go:linkname schedRecruitAfter lineup/internal/sched.recruitAfter
var schedRecruitAfter int

// SetRecruitAfter makes every exhaustive exploration start its helpers once n
// executions have started, until the returned function is called.
func SetRecruitAfter(n int) (restore func()) {
	old := schedRecruitAfter
	schedRecruitAfter = n
	return func() { schedRecruitAfter = old }
}

// DecisionPaths returns the two ways to decide the history of an outcome
// against spec under opts: raw is phase 2's, from the outcome's events, with
// the operations it decides on, and ref is specDecide on the operations of
// the materialized history, History.Ops being the independent reference for
// the operations taken from raw events.
func DecisionPaths(spec *history.Spec, opts Options) (
	raw func(*sched.Outcome) ([]history.Op, *Violation, error),
	ref func(*sched.Outcome) (h *history.History, ok bool, pending *history.Op, err error),
) {
	d := opts.decider(spec, nil, monitor.ModeAuto)
	raw = func(out *sched.Outcome) ([]history.Op, *Violation, error) {
		v, err := d.outcome(out)
		return appendOps([]history.Op{}, out.Events), v, err
	}
	ref = func(out *sched.Outcome) (*history.History, bool, *history.Op, error) {
		h, err := OutcomeHistory(out)
		if err != nil {
			return nil, false, nil, err
		}
		ok, pending := specDecide(spec, h.Ops(), h.Stuck)
		return h, ok, pending, nil
	}
	return raw, ref
}

// SerialHistoryOf is phase 1's conversion of a serial execution's outcome.
func SerialHistoryOf(out *sched.Outcome) (*history.SerialHistory, error) {
	return serialHistory(out)
}
