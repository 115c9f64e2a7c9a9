package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// phase1Classes are the classes the RandomCheck sweeps keep at 3x3 in plain
// `go test` (their smoke subsets), plus the blocking classes and the
// intentionally nondeterministic bag.
var phase1Classes = []string{
	"CancellationTokenSource", "ConcurrentStack", "Lazy(Pre)", "CountdownEvent(Pre)",
	"ConcurrentQueue", "ConcurrentQueue(Pre)", "Barrier", "ConcurrentBag",
	"ManualResetEvent", "ManualResetEvent(Pre)", "SemaphoreSlim", "BlockingCollection",
}

func findClass(t *testing.T, class string) *core.Subject {
	t.Helper()
	sub, _, ok := bench.Find(class)
	if !ok {
		t.Fatalf("class %s is not in the registry", class)
	}
	return sub
}

func balancedTest(rng *rand.Rand, sub *core.Subject, rows, cols int) *core.Test {
	m := &core.Test{}
	for r := 0; r < rows; r++ {
		row := make([]core.Op, cols)
		for c := range row {
			row[c] = sub.Ops[rng.Intn(len(sub.Ops))]
		}
		m.Rows = append(m.Rows, row)
	}
	return m
}

// multinomial is the number of interleavings of the rows: (sum of lengths)!
// divided by the product of the lengths' factorials.
func multinomial(rows [][]core.Op) int {
	n, placed := 1, 0
	for _, row := range rows {
		for k := 1; k <= len(row); k++ {
			placed++
			n = n * placed / k
		}
	}
	return n
}

func checkPhase1Invariant(t *testing.T, sub *core.Subject, m *core.Test) {
	t.Helper()
	_, p1, err := core.SynthesizeSpec(sub, m, core.Options{})
	if err != nil {
		t.Fatalf("phase 1 on\n%s: %v", m, err)
	}
	if p1.Executions != p1.Histories+p1.Stuck || p1.DedupHits != 0 {
		t.Fatalf("phase 1 ran %d executions for %d full + %d stuck serial histories (%d dedup hits) on\n%s",
			p1.Executions, p1.Histories, p1.Stuck, p1.DedupHits, m)
	}
	if want := multinomial(m.Rows); p1.Stuck == 0 && p1.Executions != want {
		t.Fatalf("phase 1 ran %d executions, the rows have %d interleavings:\n%s", p1.Executions, want, m)
	}
}

// TestPhase1OneExecutionPerSerialHistory pins the cost of phase 1: serial
// exploration reaches every serial history, full or stuck, exactly once.
func TestPhase1OneExecutionPerSerialHistory(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, class := range phase1Classes {
		sub := findClass(t, class)
		t.Run(class, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 3}} {
				for i := 0; i < 3; i++ {
					checkPhase1Invariant(t, sub, balancedTest(rng, sub, shape[0], shape[1]))
				}
			}
		})
	}
	t.Run("shapes", func(t *testing.T) {
		sub := counterSubject()
		inc, get, dec := counterOps()
		for _, m := range []*core.Test{
			{Rows: [][]core.Op{{inc, get}, {}, {get, inc}}},
			{Rows: [][]core.Op{{}, {}}},
			{Init: []core.Op{inc}, Rows: [][]core.Op{{dec, get}, {inc, get}}, Final: []core.Op{get, get}},
			// Dec blocks on a fresh counter: thread A's first operation is stuck
			// unless B's Inc ran before it.
			{Rows: [][]core.Op{{dec, get}, {inc, get}}},
		} {
			checkPhase1Invariant(t, sub, m)
		}
	})
	t.Run("4x3", func(t *testing.T) {
		if os.Getenv("LINEUP_BENCH_FULL") != "1" {
			t.Skip("369 600 serial executions; set LINEUP_BENCH_FULL=1")
		}
		sub := findClass(t, "ConcurrentQueue")
		m := balancedTest(rand.New(rand.NewSource(13)), sub, 4, 3)
		_, p1, err := core.SynthesizeSpec(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("phase 1: %v", err)
		}
		if p1.Executions != 369600 || p1.Histories != 369600 {
			t.Fatalf("4x3 phase 1: %d executions, %d histories, want 369600 of each", p1.Executions, p1.Histories)
		}
	})
}

// TestBudgetErrorNamesPhase: running out of the execution budget reports
// which phase stopped and how far it got, and still matches sched.ErrBudget.
func TestBudgetErrorNamesPhase(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, get, _ := counterOps()
	m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}} // 6 serial executions
	for _, tc := range []struct {
		phase, limit, workers int
	}{{1, 4, 1}, {2, 8, 1}, {2, 8, 2}} {
		t.Run(fmt.Sprintf("phase%d/workers=%d", tc.phase, tc.workers), func(t *testing.T) {
			_, err := core.Check(sub, m, core.WithExecutionBudget(core.Options{Workers: tc.workers}, tc.limit))
			var be *core.BudgetError
			if !errors.As(err, &be) || !errors.Is(err, sched.ErrBudget) {
				t.Fatalf("want a *core.BudgetError wrapping sched.ErrBudget, got %v", err)
			}
			if be.Phase != tc.phase || be.Limit != tc.limit || be.Executions != tc.limit {
				t.Fatalf("got %+v, want phase %d stopped at %d executions", be, tc.phase, tc.limit)
			}
			if want := fmt.Sprintf("phase %d", tc.phase); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}
