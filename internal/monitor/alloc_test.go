//go:build !race

package monitor_test

import (
	"math/rand"
	"runtime"
	"sync"
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

// rememberingModel is m with every step it has taken remembered, so a check
// that repeats an earlier one builds no model state: what it allocates is
// Check's own.
func rememberingModel(m *monitor.Model) *monitor.Model {
	type step struct {
		res, next string
		err       error
	}
	var mu sync.Mutex
	taken := map[string]map[string]step{}
	out := *m
	out.Step = func(state, op string) (string, string, error) {
		mu.Lock()
		defer mu.Unlock()
		s, ok := taken[state][op]
		if !ok {
			s.res, s.next, s.err = m.Step(state, op)
			if taken[state] == nil {
				taken[state] = map[string]step{}
			}
			taken[state][op] = s
		}
		return s.res, s.next, s.err
	}
	return &out
}

// TestCheckSplitAllocs is the allocation ceiling of Check around the search
// on a 2 000-operation set trace over 64 keys, with the model's states
// remembered from the warm-up run: well-formedness, the pending operations,
// the split into parts and the merged witness cost a fixed handful, and what
// is left is a witness per part (measured 103, where a Pending built on Ops
// and parts and a witness grown by append made 632). GOMAXPROCS is pinned to
// 2 because every checkParts worker takes a searcher.
func TestCheckSplitAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := rememberingModel(monitor.SetModel())
	h := pinSetHistory(rand.New(rand.NewSource(29)), 4, 2000, 64)
	allocs := testing.AllocsPerRun(20, func() {
		if out, err := monitor.Check(m, h, monitor.Options{}); err != nil || !out.Linearizable || out.Stats.Parts != 64 {
			t.Fatalf("Check: %+v, %v", out, err)
		}
	})
	t.Logf("Check of 2 000 set operations on 64 keys: %.0f allocs", allocs)
	if allocs > 260 {
		t.Errorf("Check allocates %.0f times, over its ceiling of 260", allocs)
	}
}
