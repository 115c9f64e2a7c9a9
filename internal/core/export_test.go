package core

import (
	_ "unsafe" // for go:linkname
)

// Program exposes the sched.Program a check runs, so that external tests can
// execute single schedules of a test under their own controller.
var Program = program

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
