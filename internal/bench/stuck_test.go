package bench_test

import (
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
)

// TestStuckClassesCount reproduces Section 5.5: a subset of the classes
// exhibits deadlocking (stuck) tests under random testing — in the paper 5
// of the 13 — because blocking acquires can outnumber releases in a random
// matrix. "Our use of generalized linearizability is significant insofar
// [these] classes could not have been tested with a methodology that can
// not handle them." The blocking classes here are the ones with Wait/Take/
// SignalAndWait-style operations; classes made of try-operations never get
// stuck.
func TestStuckClassesCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	// Expected blocking behavior by class (operations that can block):
	wantStuck := map[string]bool{
		"Lazy":                    false,
		"ManualResetEvent":        true, // Wait
		"SemaphoreSlim":           true, // Wait at count 0
		"CountdownEvent":          true, // Wait at count > 0
		"ConcurrentDictionary":    false,
		"ConcurrentQueue":         false,
		"ConcurrentStack":         false,
		"ConcurrentLinkedList":    false,
		"BlockingCollection":      true, // Take on empty
		"ConcurrentBag":           false,
		"TaskCompletionSource":    true, // Wait while pending
		"CancellationTokenSource": true, // WaitForCancel
		"Barrier":                 true, // SignalAndWait
	}
	stuckClasses := 0
	for _, e := range bench.Registry() {
		sub := e.Subject
		// Phase 1 alone is enough to observe stuckness and is cheap.
		stuck := 0
		sum, err := core.RandomCheck(sub, nil, core.RandomOptions{
			Rows: 2, Cols: 2, Samples: 20, Seed: 3,
			Options: core.Options{PreemptionBound: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", sub.Name, err)
		}
		stuck = sum.StuckTests
		if !wantStuck[sub.Name] && stuck > 0 {
			t.Errorf("%s: %d stuck tests on a try-only class", sub.Name, stuck)
		}
		if stuck > 0 {
			stuckClasses++
		}
	}
	if stuckClasses < 5 {
		t.Errorf("only %d classes exhibited stuck tests; the paper's point (Section 5.5) needs several", stuckClasses)
	}
}
