package lineup_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lineup"
	"lineup/internal/vsync"
)

// miniQueue is a user-written component under test. Note the only
// concession to the checker: methods take the current *lineup.Thread and
// shared state lives in vsync cells, so the deterministic scheduler can
// interleave accesses.
type miniQueue struct {
	mu    *vsync.Mutex
	items *vsync.Cell[[]int]
}

func newMiniQueue(t *lineup.Thread) *miniQueue {
	return &miniQueue{
		mu:    vsync.NewMutex(t, "MiniQueue.lock"),
		items: vsync.NewCell(t, "MiniQueue.items", []int(nil)),
	}
}

// Add appends v.
func (q *miniQueue) Add(t *lineup.Thread, v int) {
	q.mu.Lock(t)
	q.items.Store(t, append(q.items.Load(t), v))
	q.mu.Unlock(t)
}

// TryTake removes the head element — but the lock acquire "times out" when
// the lock is contended (the seeded Fig. 1 bug).
func (q *miniQueue) TryTake(t *lineup.Thread) (int, bool) {
	if !q.mu.TryLock(t) { // BUG: should be a plain blocking Lock
		return 0, false
	}
	defer q.mu.Unlock(t)
	items := q.items.Load(t)
	if len(items) == 0 {
		return 0, false
	}
	q.items.Store(t, items[1:])
	return items[0], true
}

// printLines prints s with the padding at the end of each line removed: a
// test's matrix pads every cell, and an Output block holds no trailing space.
func printLines(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// quickstartSubject is MiniQueue with the invocations Example_quickstart
// tests: Add(200), Add(400) and TryTake().
func quickstartSubject() *lineup.Subject {
	add := func(v int) lineup.Op {
		return lineup.Op{Method: "Add", Args: fmt.Sprint(v), Run: func(t *lineup.Thread, obj any) string {
			obj.(*miniQueue).Add(t, v)
			return "ok"
		}}
	}
	tryTake := lineup.Op{Method: "TryTake", Run: func(t *lineup.Thread, obj any) string {
		v, ok := obj.(*miniQueue).TryTake(t)
		if !ok {
			return "Fail"
		}
		return fmt.Sprint(v)
	}}
	return &lineup.Subject{
		Name: "MiniQueue",
		New:  func(t *lineup.Thread) any { return newMiniQueue(t) },
		Ops:  []lineup.Op{add(200), add(400), tryTake},
	}
}

// Example_quickstart checks a hand-written concurrent queue.
//
// The queue is the paper's Fig. 1 scenario in miniature: its TryTake uses a
// lock acquire that can time out (modeled by TryLock under the deterministic
// scheduler), so it can fail even when the queue is non-empty. Line-Up finds
// the violation from nothing but a set of invocations — no specification, no
// linearization points — and Shrink then cuts the failing test to its
// minimal form. Any such violation proves the queue is not linearizable with
// respect to any deterministic sequential specification (Theorem 5).
func Example_quickstart() {
	sub := quickstartSubject()

	// The only manual step (Section 1.1): pick the invocations to test.
	// RandomCheck samples test matrices over them and checks each.
	sum, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
		Rows: 2, Cols: 2, Samples: 25, Seed: 1, StopAtFirstFailure: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("checked random 2x2 tests: %d passed, %d failed\n", sum.Passed, sum.Failed)
	fmt.Println("first failing random 2x2 test:")
	printLines(sum.FirstFailure.Test.String())

	min, res, err := lineup.Shrink(sub, sum.FirstFailure.Test, lineup.Options{})
	if err != nil {
		panic(err)
	}
	threads, ops := min.Dim()
	fmt.Printf("minimal failing test (%dx%d):\n", threads, ops)
	printLines(min.String())
	fmt.Println(res.Violation.Kind)
	fmt.Print(res.Violation.History)
	// Output:
	// checked random 2x2 tests: 1 passed, 1 failed
	// first failing random 2x2 test:
	// Thread A      Thread B
	// Add(400)      Add(400)
	// Add(200)      TryTake()
	// minimal failing test (2x2):
	// Thread A      Thread B
	// Add(400)      Add(400)
	//               TryTake()
	// concurrent history with no serial witness
	// (call Add(400) T1)
	// (ret Add(400)=ok T1)
	// (call TryTake() T1)
	// (call Add(400) T0)
	// (ret TryTake()=Fail T1)
	// (ret Add(400)=ok T0)
}

// TestQuickstartCountsIgnoreWorkers: a RandomCheck that stops at its first
// failure reports the same counts and the same checked tests at every worker
// count, and again when it resumes from the checkpoint a four-worker run left
// (which can hold tests past the first failure).
func TestQuickstartCountsIgnoreWorkers(t *testing.T) {
	sub := quickstartSubject()
	run := func(workers int, dir string) *lineup.RandomSummary {
		t.Helper()
		sum, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
			Options: lineup.Options{Workers: workers},
			Rows:    2, Cols: 2, Samples: 25, Seed: 1, StopAtFirstFailure: true, Dir: dir,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return sum
	}
	checked := func(sum *lineup.RandomSummary) (idx []int) {
		for k, r := range sum.Results {
			if r != nil {
				idx = append(idx, k)
			}
		}
		return idx
	}
	want := run(1, "")
	if want.Failed != 1 {
		t.Fatalf("one worker: %d passed, %d failed; the fixture no longer stops at a failure", want.Passed, want.Failed)
	}
	dir := t.TempDir()
	run(4, dir)
	resumed := run(1, dir)
	if resumed.Resumed == 0 {
		t.Fatal("the second run in the same directory resumed nothing")
	}
	for name, got := range map[string]*lineup.RandomSummary{
		"2 workers": run(2, ""), "4 workers": run(4, ""), "resumed": resumed,
	} {
		if got.Passed != want.Passed || got.Failed != want.Failed || !slices.Equal(checked(got), checked(want)) {
			t.Errorf("%s: %d passed, %d failed, tests %v; one worker: %d, %d, %v",
				name, got.Passed, got.Failed, checked(got), want.Passed, want.Failed, checked(want))
		}
	}
}
