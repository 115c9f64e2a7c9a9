//go:build race

package history_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
