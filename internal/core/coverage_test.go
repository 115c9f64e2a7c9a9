package core_test

import (
	"strconv"
	"testing"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// TestCoverageHistoryShapeSignal pins what Coverage's history signal
// identifies: the shape of a history up to a per-check renaming of operation
// and result strings. Two tests that differ only in an argument (and hence a
// result) value add no new history hashes; a test with another shape does.
// Generate's search trajectory depends on this equivalence, so a change of
// the history key must not alter it silently.
func TestCoverageHistoryShapeSignal(t *testing.T) {
	sched.RequireNoLeaks(t)
	set := func(v int) core.Op {
		return core.Op{Method: "Set", Args: strconv.Itoa(v), Run: func(t *sched.Thread, obj any) string {
			obj.(*collections.Counter).Set(t, v)
			return collections.OK
		}}
	}
	_, get, _ := counterOps()
	sub := counterSubject()
	cov := core.NewCoverage()
	check := func(m *core.Test) int {
		t.Helper()
		if res := mustCheck(t, sub, m, core.WithCoverage(core.Options{}, cov)); res.Verdict != core.Pass {
			t.Fatalf("fixture does not pass: %v", res.Violation)
		}
		return cov.Hists()
	}
	first := check(&core.Test{Rows: [][]core.Op{{set(5)}, {get}}})
	if first == 0 {
		t.Fatal("no history hashes recorded")
	}
	if again := check(&core.Test{Rows: [][]core.Op{{set(7)}, {get}}}); again != first {
		t.Fatalf("a test differing only in an argument value grew Hists from %d to %d", first, again)
	}
	if other := check(&core.Test{Rows: [][]core.Op{{set(5), get}, {get}}}); other <= first {
		t.Fatalf("a test with a new history shape left Hists at %d", other)
	}
}
