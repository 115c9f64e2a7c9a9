package bench_test

import (
	"os"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
)

// cleanClasses are the corrected classes with no intentional root causes:
// RandomCheck must never flag them (any flag would be a genuine
// linearizability violation in this repository's implementation).
func cleanClasses() []*core.Subject {
	var out []*core.Subject
	for _, e := range bench.Registry() {
		if len(e.Causes) == 0 {
			out = append(out, e.Subject)
		}
	}
	return out
}

// The RandomCheck sweeps cost about three CPU-minutes over the whole registry
// and used to set the wall time of `go test ./...` on their own. Plain
// `go test` therefore runs each sweep at the paper's 3x3 size only on a fixed
// smoke subset of classes (same seeds and sample counts as the full sweep)
// and at 2x3 on the rest; LINEUP_BENCH_FULL=1 (`make sweeps`) runs the whole
// registry at 3x3.
func fullSweeps() bool { return os.Getenv("LINEUP_BENCH_FULL") == "1" }

// sweepDims returns the test-matrix size class is swept at: 3x3 in full mode
// or when class is in the sweep's smoke subset. atFull says which, because a
// 2x3 sample is too small to promise that a defect is found.
func sweepDims(t *testing.T, class string, smoke ...string) (rows, cols int, atFull bool) {
	atFull = fullSweeps()
	for _, s := range smoke {
		atFull = atFull || s == class
	}
	if atFull {
		return 3, 3, true
	}
	t.Logf("smoke mode: %s swept at 2x3; `make sweeps` runs it at 3x3", class)
	return 2, 3, false
}

func TestRandomCheckCleanClassesPass(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep is slow")
	}
	for _, sub := range cleanClasses() {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			rows, cols, _ := sweepDims(t, sub.Name, "CancellationTokenSource", "ConcurrentStack")
			sum, err := core.RandomCheck(sub, nil, core.RandomOptions{
				Rows: rows, Cols: cols, Samples: 6, Seed: 42,
				Options: core.Options{PreemptionBound: 2},
			})
			if err != nil {
				t.Fatalf("randomcheck: %v", err)
			}
			if sum.Failed > 0 {
				t.Fatalf("%s: %d/%d random tests failed; first violation:\n%s",
					sub.Name, sum.Failed, sum.Failed+sum.Passed, sum.FirstFailure.Violation)
			}
		})
	}
}

// TestRandomCheckFindsSeededBugs verifies that sampling 3x3 tests discovers
// every seeded (Pre) defect, as in the paper's evaluation methodology
// (Section 5.1: 100 random 3x3 tests per class; most violations are caught
// by a large proportion of the sample, Section 5.4).
func TestRandomCheckFindsSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep is slow")
	}
	for _, e := range bench.Registry() {
		if e.Pre == nil {
			continue
		}
		e := e
		t.Run(e.Pre.Name, func(t *testing.T) {
			rows, cols, atFull := sweepDims(t, e.Pre.Name, "Lazy(Pre)", "CountdownEvent(Pre)", "ConcurrentQueue(Pre)")
			sum, err := core.RandomCheck(e.Pre, nil, core.RandomOptions{
				Rows: rows, Cols: cols, Samples: 30, Seed: 7,
				StopAtFirstFailure: true,
				Options:            core.Options{PreemptionBound: e.Bound},
			})
			if err != nil {
				t.Fatalf("randomcheck: %v", err)
			}
			if atFull && sum.FirstFailure == nil {
				t.Fatalf("%s: no violation found in 30 random 3x3 tests", e.Pre.Name)
			}
		})
	}
}

// TestRandomCheckFindsIntentionalCauses verifies that the intentional
// behaviors H..L on the corrected classes are also discovered by sampling.
func TestRandomCheckFindsIntentionalCauses(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep is slow")
	}
	for _, e := range bench.Registry() {
		if len(e.Causes) == 0 {
			continue
		}
		e := e
		t.Run(e.Subject.Name, func(t *testing.T) {
			rows, cols, atFull := sweepDims(t, e.Subject.Name, "BlockingCollection", "Barrier")
			sum, err := core.RandomCheck(e.Subject, nil, core.RandomOptions{
				Rows: rows, Cols: cols, Samples: 30, Seed: 11,
				StopAtFirstFailure: true,
				Options:            core.Options{PreemptionBound: e.Bound},
			})
			if err != nil {
				t.Fatalf("randomcheck: %v", err)
			}
			if atFull && sum.FirstFailure == nil {
				t.Fatalf("%s: no violation found in 30 random 3x3 tests", e.Subject.Name)
			}
		})
	}
}
