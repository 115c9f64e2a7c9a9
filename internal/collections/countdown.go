package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// CountdownEvent is the corrected countdown event: it becomes set when its
// count reaches zero. Signal decrements, AddCount/TryAddCount increment (and
// fail once the event is set), Wait blocks until set. The count is
// manipulated with interlocked compare-and-swap like the .NET
// implementation.
type CountdownEvent struct {
	pre   bool
	count *vsync.AtomicInt // nil in the (Pre) form
	plain *vsync.Cell[int] // BUG: plain field where the corrected version uses CAS; (Pre) only
	ws    sched.WaitSet
}

// NewCountdownEvent constructs an event with the given initial count.
func NewCountdownEvent(t *sched.Thread, initial int) *CountdownEvent {
	c := &CountdownEvent{count: vsync.NewAtomicInt(t, "CountdownEvent.count", initial)}
	c.ws.SetFootprintLoc(t.NewLoc())
	return c
}

// NewCountdownEventPre constructs a (Pre) event with the given initial
// count. It reproduces root cause E: Signal decrements the count with an
// unsynchronized read-modify-write instead of an interlocked CAS, so
// concurrent signals can lose a decrement. The event then never becomes
// set: waiters block forever (stuck history) and CurrentCount/IsSet report
// values no serial execution produces.
func NewCountdownEventPre(t *sched.Thread, initial int) *CountdownEvent {
	c := &CountdownEvent{pre: true, plain: vsync.NewCell(t, "CountdownEvent.count", initial)}
	c.ws.SetFootprintLoc(t.NewLoc())
	return c
}

// load reads the count.
func (c *CountdownEvent) load(t *sched.Thread) int {
	if c.pre {
		return c.plain.Load(t)
	}
	return c.count.Load(t)
}

// update replaces the count cur, read by load, with next, reporting whether
// it did. BUG (root cause E, (Pre) only): load and store are separate
// unsynchronized accesses, so a concurrent update can be overwritten.
func (c *CountdownEvent) update(t *sched.Thread, cur, next int) bool {
	if c.pre {
		c.plain.Store(t, next) // BUG: lost update window between load and store
		return true
	}
	return c.count.CompareAndSwap(t, cur, next)
}

// Signal decrements the count by n; it reports false if the count would
// drop below zero (the .NET version throws). Reaching zero wakes all
// waiters.
func (c *CountdownEvent) Signal(t *sched.Thread, n int) bool {
	for {
		cur := c.load(t)
		if cur < n {
			return false
		}
		if c.update(t, cur, cur-n) {
			if cur-n == 0 {
				c.ws.Broadcast(t)
			}
			return true
		}
	}
}

// TryAddCount increments the count by n unless the event is already set.
// The (Pre) form shares Signal's unsynchronized read-modify-write defect.
func (c *CountdownEvent) TryAddCount(t *sched.Thread, n int) bool {
	for {
		cur := c.load(t)
		if cur == 0 {
			return false
		}
		if c.update(t, cur, cur+n) {
			return true
		}
	}
}

// AddCount increments the count by n; it reports false (instead of the
// .NET exception) if the event is already set.
func (c *CountdownEvent) AddCount(t *sched.Thread, n int) bool {
	return c.TryAddCount(t, n)
}

// IsSet reports whether the count has reached zero.
func (c *CountdownEvent) IsSet(t *sched.Thread) bool {
	return c.load(t) == 0
}

// CurrentCount returns the remaining count.
func (c *CountdownEvent) CurrentCount(t *sched.Thread) int {
	return c.load(t)
}

// Wait blocks until the event is set. The check and the park are adjacent
// instrumented points, so a Signal cannot slip in between under the
// scheduler's granularity.
func (c *CountdownEvent) Wait(t *sched.Thread) {
	for c.load(t) != 0 {
		c.ws.Wait(t)
	}
}

// WaitZero is Wait(0): it reports whether the event is set, without
// blocking.
func (c *CountdownEvent) WaitZero(t *sched.Thread) bool {
	return c.IsSet(t)
}
