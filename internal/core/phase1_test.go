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
	"lineup/internal/history"
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

// fixedOrder is a controller that takes its decisions from a list.
type fixedOrder struct {
	order []sched.ThreadID
	next  int
}

func (c *fixedOrder) Pick(_ sched.ThreadID, _ bool, enabled []sched.ThreadID) sched.ThreadID {
	id := c.order[c.next]
	c.next++
	return id
}

// referenceSpec enumerates the serial histories of m without the explorer:
// every interleaving of the rows' operations, by recursion, each run once
// under a controller that schedules the operations in that order. (Once a
// single thread is left the scheduler stops asking, so the decisions are a
// prefix of the order.) Orders that get stuck behind the same prefix yield
// the same stuck history; the result is keyed by SerialHistory.Key.
func referenceSpec(t *testing.T, sub *core.Subject, m *core.Test) map[string]*history.SerialHistory {
	t.Helper()
	out := make(map[string]*history.SerialHistory)
	left := make([]int, len(m.Rows))
	total := 0
	for i, row := range m.Rows {
		left[i] = len(row)
		total += len(row)
	}
	var order []sched.ThreadID
	var rec func()
	rec = func() {
		if len(order) == total {
			var holder any
			ctrl := &fixedOrder{order: order}
			o := sched.NewScheduler(sched.Config{Serial: true}, ctrl).Run(core.Program(sub, m, &holder))
			if o.Err != nil {
				t.Fatalf("reference execution: %v", o.Err)
			}
			h, err := core.OutcomeHistory(o)
			if err != nil {
				t.Fatalf("reference execution: %v", err)
			}
			s := history.ToSerial(h)
			out[s.Key()] = s
			return
		}
		for i := range left {
			if left[i] == 0 {
				continue
			}
			left[i]--
			order = append(order, sched.ThreadID(i+1)) // the setup thread is 0
			rec()
			order = order[:len(order)-1]
			left[i]++
		}
	}
	rec()
	return out
}

// nondeterministic applies line 4 of Fig. 5 literally: two serial histories
// whose longest common prefix ends in a call.
func nondeterministic(hs map[string]*history.SerialHistory) bool {
	type step struct {
		thread       int
		name, result string
	}
	steps := func(s *history.SerialHistory) []step {
		var out []step
		for _, op := range s.Ops {
			out = append(out, step{op.Thread, op.Name, "=" + op.Result})
		}
		if s.Pending != nil {
			out = append(out, step{s.Pending.Thread, s.Pending.Name, "#"})
		}
		return out
	}
	var all [][]step
	for _, s := range hs {
		all = append(all, steps(s))
	}
	for i, a := range all {
		for _, b := range all[:i] {
			k := 0
			for k < len(a) && k < len(b) && a[k] == b[k] {
				k++
			}
			if k < len(a) && k < len(b) && a[k].thread == b[k].thread && a[k].name == b[k].name {
				return true
			}
		}
	}
	return false
}

// TestSpecMatchesReferenceEnumeration: phase 1 synthesizes exactly the serial
// histories an explorer-free enumeration of the rows' interleavings finds,
// with the same determinism verdict, and the spec survives Export/ImportSpec
// with groups and candidate order intact.
func TestSpecMatchesReferenceEnumeration(t *testing.T) {
	sched.RequireNoLeaks(t)
	sawStuck := false
	for _, class := range []string{
		"ConcurrentQueue", "ConcurrentQueue(Pre)", "ManualResetEvent", "ManualResetEvent(Pre)",
		"SemaphoreSlim", "SemaphoreSlim(Pre)", "BlockingCollection", "ConcurrentBag",
	} {
		sub := findClass(t, class)
		t.Run(class, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
				for i := 0; i < 2; i++ {
					m := balancedTest(rng, sub, shape[0], shape[1])
					spec, p1, err := core.SynthesizeSpec(sub, m, core.Options{})
					if err != nil {
						t.Fatalf("phase 1 on\n%s: %v", m, err)
					}
					ref := referenceSpec(t, sub, m)
					got := make(map[string]bool)
					for _, s := range spec.Export() {
						got[s.Key()] = true
					}
					full, stuck := 0, 0
					for k, s := range ref {
						if !got[k] {
							t.Fatalf("spec lacks the serial history %s of\n%s", s, m)
						}
						if s.Stuck() {
							stuck++
						} else {
							full++
						}
					}
					if len(got) != len(ref) || spec.NumFull() != full || spec.NumStuck() != stuck || p1.Histories != full || p1.Stuck != stuck {
						t.Fatalf("spec holds %d histories (%d full, %d stuck), reference %d (%d, %d) on\n%s",
							len(got), spec.NumFull(), spec.NumStuck(), len(ref), full, stuck, m)
					}
					_, bad := spec.Nondeterministic()
					if want := nondeterministic(ref); bad != want {
						t.Fatalf("nondeterministic = %v, reference %v on\n%s", bad, want, m)
					}
					sawStuck = sawStuck || stuck > 0
					assertRoundTrip(t, spec)
				}
			}
		})
	}
	if !sawStuck {
		t.Fatalf("the sample covers no stuck serial history")
	}
	// The scheduler is deterministic, so no registry class is serially
	// nondeterministic. A subject whose results depend on how many objects
	// were built before is: successive executions disagree on the first call.
	// Its histories differ from run to run, so only the verdicts compare.
	t.Run("flaky", func(t *testing.T) {
		built := 0
		flip := core.Op{Method: "Flip", Run: func(*sched.Thread, any) string { return fmt.Sprint(built % 2) }}
		sub := &core.Subject{Name: "Flaky", New: func(*sched.Thread) any { built++; return nil }, Ops: []core.Op{flip}}
		m := &core.Test{Rows: [][]core.Op{{flip, flip}, {flip}}}
		spec, _, err := core.SynthesizeSpec(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("phase 1: %v", err)
		}
		if _, bad := spec.Nondeterministic(); !bad || !nondeterministic(referenceSpec(t, sub, m)) {
			t.Fatalf("flaky subject not flagged: spec %v", bad)
		}
		assertRoundTrip(t, spec)
	})
}

func assertRoundTrip(t *testing.T, spec *history.Spec) {
	t.Helper()
	back := history.ImportSpec(spec.Export())
	g1, g2 := spec.Groups(), back.Groups()
	if strings.Join(g1, "\n") != strings.Join(g2, "\n") {
		t.Fatalf("Export/ImportSpec changed the groups or their order")
	}
	render := func(hs []*history.SerialHistory) string {
		var b strings.Builder
		for _, h := range hs {
			b.WriteString(h.Key() + "\n")
		}
		return b.String()
	}
	for _, sig := range g1 {
		f1, s1 := spec.GroupHistories(sig)
		f2, s2 := back.GroupHistories(sig)
		if render(f1) != render(f2) || render(s1) != render(s2) {
			t.Fatalf("Export/ImportSpec changed the candidate order of group %s", sig)
		}
	}
}

// TestBudgetErrorNamesPhase: running out of MaxExecutionsPerPhase reports
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
			_, err := core.Check(sub, m, core.Options{MaxExecutionsPerPhase: tc.limit, Workers: tc.workers})
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
