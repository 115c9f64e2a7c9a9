package core

// Program exposes the sched.Program a check runs, so that external tests can
// execute single schedules of a test under their own controller.
var Program = program
