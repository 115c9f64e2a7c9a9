//go:build !race

package oracle

// raceEnabled reports whether the race detector instruments this build; the
// allocation ceilings skip under it.
const raceEnabled = false
