package core

import (
	_ "unsafe" // for go:linkname
)

// Program exposes the sched.Program a check runs, so that external tests can
// execute single schedules of a test under their own controller.
var Program = program

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
