//go:build !race

package monitor_test

import (
	"math/rand"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// mreWindow is a 64-operation manual-reset-event window on three threads
// whose results come from stepping the model from "false", closed by an
// overlapping Set() ‖ Reset(), so it leaves the two-state frontier it is
// checked from. The model's states are constants: whatever a check of it
// allocates is the search's own.
func mreWindow() *history.History {
	rng := rand.New(rand.NewSource(3))
	h := pinHistory(rng, monitor.MREModel(), 3, 62, func() string {
		return []string{"Set()", "Reset()", "IsSet()"}[rng.Intn(3)]
	})
	tail := newHB()
	tail.next = len(h.Events)
	tail.call(0, "Set()").call(1, "Reset()").ret(0, "ok").ret(1, "ok")
	return &history.History{Events: append(h.Events, tail.done().Events...)}
}

// TestSearchAllocs is the allocation ceiling of the witness search: a node
// allocates nothing, so a window of about 180 nodes costs a handful of
// allocations (measured 1 for ExtendComplete, 15 for Check), where one per
// stored node would blow through both ceilings. Race instrumentation inflates
// the counts, so the file is not built with -race.
func TestSearchAllocs(t *testing.T) {
	m := monitor.MREModel()
	h := mreWindow()
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc.SetFrontier([]string{"false", "true"})
	extend := testing.AllocsPerRun(50, func() {
		if ok, err := inc.ExtendComplete(h); err != nil || !ok || inc.FrontierSize() != 2 {
			t.Fatalf("ExtendComplete: ok=%v err=%v frontier=%d, want true/nil/2", ok, err, inc.FrontierSize())
		}
	})
	check := testing.AllocsPerRun(50, func() {
		if out, err := monitor.Check(m, h, monitor.Options{}); err != nil || !out.Linearizable {
			t.Fatalf("Check: %+v, %v", out, err)
		}
	})
	t.Logf("ExtendComplete %.0f allocs, Check %.0f allocs per window", extend, check)
	if extend > 4 {
		t.Errorf("ExtendComplete allocates %.0f times per window, over its ceiling of 4", extend)
	}
	if check > 20 {
		t.Errorf("Check allocates %.0f times per window, over its ceiling of 20", check)
	}
}
