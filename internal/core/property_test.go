package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// randomTest draws a random matrix over the subject's ops, up to maxRows x
// maxCols (at least 1x1).
func randomTest(rng *rand.Rand, ops []core.Op, maxRows, maxCols int) *core.Test {
	rows := 1 + rng.Intn(maxRows)
	m := &core.Test{}
	for r := 0; r < rows; r++ {
		cols := 1 + rng.Intn(maxCols)
		row := make([]core.Op, cols)
		for c := range row {
			row[c] = ops[rng.Intn(len(ops))]
		}
		m.Rows = append(m.Rows, row)
	}
	return m
}

// extend grows m into a strict super-test m' that has m as a prefix by
// adding exactly one invocation (appended to a row or as a new row). The
// single-op growth keeps unbounded exploration of m' tractable.
func extend(rng *rand.Rand, m *core.Test, ops []core.Op) *core.Test {
	m2 := m.Clone()
	op := ops[rng.Intn(len(ops))]
	if r := rng.Intn(len(m2.Rows) + 1); r < len(m2.Rows) {
		m2.Rows[r] = append(m2.Rows[r], op)
	} else {
		m2.Rows = append(m2.Rows, []core.Op{op})
	}
	return m2
}

// racyRegister is a deliberately cheap-to-explore buggy subject: every
// operation has one or two instrumented points, so even unbounded phase-2
// exploration stays small. Add's read-modify-write is unsynchronized, so
// updates can be lost.
func racyRegister() *core.Subject {
	type reg struct{ v *vsync.Cell[int] }
	add := core.Op{Method: "Add", Args: "1", Run: func(t *sched.Thread, o any) string {
		r := o.(*reg)
		r.v.Store(t, r.v.Load(t)+1)
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, o any) string {
		return collections.Int(o.(*reg).v.Load(t))
	}}
	return &core.Subject{
		Name: "RacyRegister",
		New: func(t *sched.Thread) any {
			return &reg{v: vsync.NewCell(t, "reg.v", 0)}
		},
		Ops: []core.Op{add, get},
	}
}

func lazyPreSubject() *core.Subject {
	value := core.Op{Method: "Value", Run: func(t *sched.Thread, o any) string {
		return collections.Int(o.(*collections.Lazy).Value(t))
	}}
	isCreated := core.Op{Method: "IsValueCreated", Run: func(t *sched.Thread, o any) string {
		return collections.Bool(o.(*collections.Lazy).IsValueCreated(t))
	}}
	return &core.Subject{
		Name: "Lazy(Pre)",
		New:  func(t *sched.Thread) any { return collections.NewLazyPre(t) },
		Ops:  []core.Op{value, isCreated},
	}
}

// TestLemma8PrefixMonotone checks the paper's Lemma 8 on random test pairs:
// if test m is a prefix of test m' and Check(X, m) fails, then
// Check(X, m') fails as well. The lemma requires unbounded phase-2
// exploration (preemption bounding compromises it), so the property runs
// with Unbounded on small tests.
func TestLemma8PrefixMonotone(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := racyRegister()
	opts := core.Options{PreemptionBound: core.Unbounded}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, sub.Ops, 2, 2)
		m2 := extend(rng, m, sub.Ops)
		if !m.IsPrefixOf(m2) {
			t.Fatalf("extend broke the prefix relation")
		}
		r1, err := core.Check(sub, m, opts)
		if err != nil {
			t.Fatalf("check m: %v", err)
		}
		if r1.Verdict != core.Fail {
			return true // lemma only constrains failing prefixes
		}
		r2, err := core.Check(sub, m2, opts)
		if err != nil {
			t.Fatalf("check m2: %v", err)
		}
		return r2.Verdict == core.Fail
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem5NoFalseAlarms checks completeness (Theorem 5) empirically:
// the correct, trivially linearizable Queue (every operation under one
// monitor) never fails any random test at any preemption bound — a failing
// check would be a false alarm, which Theorem 5 rules out.
func TestTheorem5NoFalseAlarms(t *testing.T) {
	sched.RequireNoLeaks(t)
	queue := &core.Subject{
		Name: "Queue",
		New:  func(th *sched.Thread) any { return collections.NewQueue(th) },
	}
	enq := core.Op{Method: "Enqueue", Args: "1", Run: func(th *sched.Thread, o any) string {
		o.(*collections.Queue).Enqueue(th, 1)
		return collections.OK
	}}
	deq := core.Op{Method: "TryDequeue", Run: func(th *sched.Thread, o any) string {
		return collections.TryInt(o.(*collections.Queue).TryDequeue(th))
	}}
	count := core.Op{Method: "Count", Run: func(th *sched.Thread, o any) string {
		return collections.Int(o.(*collections.Queue).Count(th))
	}}
	queue.Ops = []core.Op{enq, deq, count}

	prop := func(seed int64, bound uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, queue.Ops, 3, 2)
		pb := int(bound%3) + 1
		res, err := core.Check(queue, m, core.Options{PreemptionBound: pb})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		return res.Verdict == core.Pass
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestExplorationDeterministic re-checks random tests twice and requires
// bit-identical statistics: the whole pipeline is deterministic given the
// test and options.
func TestExplorationDeterministic(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := lazyPreSubject()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, sub.Ops, 3, 2)
		r1, err := core.Check(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		r2, err := core.Check(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		return r1.Verdict == r2.Verdict &&
			r1.Phase1.Executions == r2.Phase1.Executions &&
			r1.Phase2.Executions == r2.Phase2.Executions &&
			r1.Phase1.Histories == r2.Phase1.Histories &&
			r1.Phase2.Histories == r2.Phase2.Histories
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkPreservesFailure: whenever Shrink runs on a failing test, the
// result still fails and is a sub-test (dimension-wise) of the original.
func TestShrinkPreservesFailure(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := lazyPreSubject()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, sub.Ops, 3, 2)
		r, err := core.Check(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		if r.Verdict != core.Fail {
			return true
		}
		min, rmin, err := core.Shrink(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("shrink: %v", err)
		}
		if rmin.Verdict != core.Fail {
			return false
		}
		t0, o0 := m.Dim()
		t1, o1 := min.Dim()
		return t1 <= t0 && o1 <= o0 && min.NumOps() <= m.NumOps()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundMonotoneVerdicts: raising the preemption bound never turns a
// failing test into a passing one (the schedule space only grows).
func TestBoundMonotoneVerdicts(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := lazyPreSubject()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, sub.Ops, 2, 2)
		failedAtLower := false
		for _, pb := range []int{core.NoPreemptions, 1, 2, 3} {
			res, err := core.Check(sub, m, core.Options{PreemptionBound: pb})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if failedAtLower && res.Verdict == core.Pass {
				return false
			}
			if res.Verdict == core.Fail {
				failedAtLower = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
