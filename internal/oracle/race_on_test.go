//go:build race

package oracle

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
