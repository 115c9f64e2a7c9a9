package lineup_test

import (
	"fmt"
	"strings"

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
	sub := &lineup.Subject{
		Name: "MiniQueue",
		New:  func(t *lineup.Thread) any { return newMiniQueue(t) },
		Ops:  []lineup.Op{add(200), add(400), tryTake},
	}

	// The only manual step (Section 1.1): pick the invocations to test.
	// RandomCheck samples test matrices over them and checks each.
	sum, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
		Rows: 2, Cols: 2, Samples: 25, Seed: 1, StopAtFirstFailure: true,
	})
	if err != nil {
		panic(err)
	}
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
