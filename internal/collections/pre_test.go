package collections_test

import (
	"fmt"
	"testing"

	"lineup/internal/collections"
	"lineup/internal/sched"
)

// The (Pre) forms' seeded defects are concurrency-only, so each must behave
// perfectly in sequential use — that is what makes them hard to catch
// without a checker.

func TestQueuePreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		q := collections.NewQueuePre(th)
		q.Enqueue(th, 1)
		q.Enqueue(th, 2)
		if q.Count(th) != 2 || q.IsEmpty(th) {
			t.Errorf("count = %d", q.Count(th))
		}
		if v, ok := q.TryPeek(th); !ok || v != 1 {
			t.Errorf("peek = %d,%v", v, ok)
		}
		if v, ok := q.TryDequeue(th); !ok || v != 1 {
			t.Errorf("dequeue = %d,%v", v, ok)
		}
		if got := fmt.Sprint(q.ToArray(th)); got != "[2]" {
			t.Errorf("toarray = %s", got)
		}
		q.TryDequeue(th)
		if q.Count(th) != 0 {
			t.Errorf("count = %d", q.Count(th))
		}
	})
}

func TestStackPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		s := collections.NewStackPre(th)
		s.Push(th, 1)
		s.PushRange(th, []int{2, 3})
		if got := fmt.Sprint(s.TryPopRange(th, 2)); got != "[3 2]" {
			t.Errorf("poprange = %s", got)
		}
		if v, ok := s.TryPop(th); !ok || v != 1 {
			t.Errorf("pop = %d,%v", v, ok)
		}
		if !s.IsEmpty(th) || s.Count(th) != 0 {
			t.Errorf("not empty")
		}
		s.Push(th, 9)
		if v, ok := s.TryPeek(th); !ok || v != 9 {
			t.Errorf("peek = %d,%v", v, ok)
		}
		if got := fmt.Sprint(s.ToArray(th)); got != "[9]" {
			t.Errorf("toarray = %s", got)
		}
		s.Clear(th)
		if _, ok := s.TryPop(th); ok {
			t.Errorf("pop after clear succeeded")
		}
	})
}

func TestMREPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		e := collections.NewManualResetEventSlimPre(th)
		if e.IsSet(th) || e.WaitOne(th) {
			t.Errorf("fresh event set")
		}
		e.Set(th)
		e.Wait(th) // immediate
		e.Reset(th)
		if e.IsSet(th) {
			t.Errorf("reset ineffective")
		}
		e.Set(th)
		if !e.WaitOne(th) {
			t.Errorf("waitone after set failed")
		}
	})
}

func TestSemaphorePreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		s := collections.NewSemaphoreSlimPre(th, 1)
		if s.CurrentCount(th) != 1 {
			t.Errorf("count = %d", s.CurrentCount(th))
		}
		s.Wait(th)
		if s.WaitZero(th) {
			t.Errorf("Wait(0) without permits succeeded")
		}
		if prev := s.Release(th, 2); prev != 0 {
			t.Errorf("release returned %d", prev)
		}
		if !s.WaitZero(th) {
			t.Errorf("Wait(0) with permits failed")
		}
	})
}

func TestCountdownPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		c := collections.NewCountdownEventPre(th, 2)
		if !c.Signal(th, 1) || c.CurrentCount(th) != 1 {
			t.Errorf("signal broken")
		}
		if !c.AddCount(th, 1) || !c.TryAddCount(th, 1) {
			t.Errorf("addcount broken")
		}
		if !c.Signal(th, 3) || !c.IsSet(th) || !c.WaitZero(th) {
			t.Errorf("final state broken")
		}
		c.Wait(th) // immediate
		if c.Signal(th, 1) {
			t.Errorf("signal below zero succeeded")
		}
	})
}

func TestLazyPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		l := collections.NewLazyPre(th)
		if l.IsValueCreated(th) || l.ToString(th) != "unset" {
			t.Errorf("fresh state broken")
		}
		if l.Value(th) != 101 || l.Value(th) != 101 {
			t.Errorf("sequential lazy must memoize")
		}
		if l.ToString(th) != "101" {
			t.Errorf("tostring = %s", l.ToString(th))
		}
	})
}

func TestTCSPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		s := collections.NewTaskCompletionSourcePre(th)
		if s.TryResult(th) != "pending" {
			t.Errorf("not pending")
		}
		if !s.TrySetResult(th, 7) || s.TrySetResult(th, 8) {
			t.Errorf("sequential double-set must fail")
		}
		if s.SetCanceled(th) || s.SetException(th) || s.SetResult(th, 9) {
			t.Errorf("set after completion succeeded")
		}
		if s.Wait(th) != "result(7)" {
			t.Errorf("wait = %s", s.Wait(th))
		}
	})
	seq(t, func(th *sched.Thread) {
		s := collections.NewTaskCompletionSourcePre(th)
		if !s.TrySetException(th) || s.TryResult(th) != "exception" {
			t.Errorf("exception path broken")
		}
	})
	seq(t, func(th *sched.Thread) {
		s := collections.NewTaskCompletionSourcePre(th)
		if !s.TrySetCanceled(th) || s.TryResult(th) != "canceled" {
			t.Errorf("cancel path broken")
		}
	})
}

func TestBCPreSequential(t *testing.T) {
	seq(t, func(th *sched.Thread) {
		b := collections.NewBlockingCollectionPre(th)
		if !b.Add(th, 1) || !b.TryAdd(th, 2) {
			t.Errorf("adds failed")
		}
		if b.Count(th) != 2 {
			t.Errorf("count = %d", b.Count(th))
		}
		// Sequentially the TryLock always succeeds: no timeout fires.
		if v, ok := b.TryTake(th); !ok || v != 1 {
			t.Errorf("trytake = %d,%v", v, ok)
		}
		if v, ok := b.Take(th); !ok || v != 2 {
			t.Errorf("take = %d,%v", v, ok)
		}
		if got := fmt.Sprint(b.ToArray(th)); got != "[]" {
			t.Errorf("toarray = %s", got)
		}
		b.CompleteAdding(th)
		if !b.IsAddingCompleted(th) || !b.IsCompleted(th) {
			t.Errorf("completion flags broken")
		}
		if b.Add(th, 3) {
			t.Errorf("add after completion succeeded")
		}
		if _, ok := b.Take(th); ok {
			t.Errorf("take on completed empty collection succeeded")
		}
	})
}
