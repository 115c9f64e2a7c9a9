// Package vsync provides the shared-memory and synchronization primitives
// that implementations under test must use instead of Go's sync, sync/atomic,
// and channel primitives. Every primitive takes the current logical thread
// (*sched.Thread) and routes each access through the scheduler, which makes
// the access a potential preemption point and records it in the execution
// trace for the race and atomicity checkers.
//
// The vocabulary mirrors what the paper's .NET subjects use: plain fields
// (Cell), volatile fields and interlocked operations (Atomic, AtomicInt),
// monitors (Mutex with TryLock, Cond), and low-level wait sets.
package vsync

import (
	"lineup/internal/sched"
)

// Cell is a plain (non-synchronizing) shared variable of type T. Concurrent
// unsynchronized access to a Cell is a data race, which the race detector
// reports; the scheduler still interleaves accesses deterministically (Go's
// real memory model never comes into play because only one logical thread
// runs at a time).
type Cell[T any] struct {
	loc  int
	name string
	v    T
}

// NewCell allocates a plain shared variable with a display name for reports.
func NewCell[T any](t *sched.Thread, name string, init T) *Cell[T] {
	return &Cell[T]{loc: t.NewLoc(), name: name, v: init}
}

// Load reads the cell.
func (c *Cell[T]) Load(t *sched.Thread) T {
	t.Point()
	t.Record(sched.MemRead, c.loc, c.name)
	return c.v
}

// Store writes the cell.
func (c *Cell[T]) Store(t *sched.Thread, v T) {
	t.Point()
	t.Record(sched.MemWrite, c.loc, c.name)
	c.v = v
}

// Atomic is a synchronizing shared variable of comparable type T. Loads and
// stores have volatile (acquire/release) semantics for the race detector, and
// CompareAndSwap/Swap model interlocked operations.
type Atomic[T comparable] struct {
	loc  int
	name string
	v    T
}

// NewAtomic allocates a synchronizing shared variable.
func NewAtomic[T comparable](t *sched.Thread, name string, init T) *Atomic[T] {
	return &Atomic[T]{loc: t.NewLoc(), name: name, v: init}
}

// Load performs a volatile read.
func (a *Atomic[T]) Load(t *sched.Thread) T {
	t.Point()
	t.Record(sched.MemAtomicLoad, a.loc, a.name)
	return a.v
}

// Store performs a volatile write.
func (a *Atomic[T]) Store(t *sched.Thread, v T) {
	t.Point()
	t.Record(sched.MemAtomicStore, a.loc, a.name)
	a.v = v
}

// CompareAndSwap atomically replaces the value with new if it equals old,
// reporting whether the swap happened.
func (a *Atomic[T]) CompareAndSwap(t *sched.Thread, old, new T) bool {
	t.Point()
	t.Record(sched.MemAtomicRMW, a.loc, a.name)
	if a.v == old {
		a.v = new
		return true
	}
	return false
}

// Swap atomically replaces the value and returns the previous one.
func (a *Atomic[T]) Swap(t *sched.Thread, v T) T {
	t.Point()
	t.Record(sched.MemAtomicRMW, a.loc, a.name)
	old := a.v
	a.v = v
	return old
}

// AtomicInt is a synchronizing integer with interlocked arithmetic.
type AtomicInt struct {
	a Atomic[int]
}

// NewAtomicInt allocates a synchronizing integer.
func NewAtomicInt(t *sched.Thread, name string, init int) *AtomicInt {
	return &AtomicInt{a: Atomic[int]{loc: t.NewLoc(), name: name, v: init}}
}

// Load performs a volatile read.
func (i *AtomicInt) Load(t *sched.Thread) int { return i.a.Load(t) }

// Store performs a volatile write.
func (i *AtomicInt) Store(t *sched.Thread, v int) { i.a.Store(t, v) }

// CompareAndSwap atomically replaces the value if it equals old.
func (i *AtomicInt) CompareAndSwap(t *sched.Thread, old, new int) bool {
	return i.a.CompareAndSwap(t, old, new)
}

// Add atomically adds delta and returns the new value (Interlocked.Add).
func (i *AtomicInt) Add(t *sched.Thread, delta int) int {
	t.Point()
	t.Record(sched.MemAtomicRMW, i.a.loc, i.a.name)
	i.a.v += delta
	return i.a.v
}

// Mutex is a non-timed monitor lock. Lock blocks; TryLock fails immediately
// if the lock is held, which is also how lock-acquire timeouts are modeled
// under the checker (the timed-out outcome corresponds exactly to a schedule
// in which the lock is observed held; see DESIGN.md). The mutex is reentrant,
// matching .NET monitors. A mutex may outlive an execution, held by a thread
// that never released it: the holder is recorded with its generation, so the
// thread that gets its handle in a later execution does not hold it.
type Mutex struct {
	loc    int
	name   string
	holder *sched.Thread
	gen    uint64 // holder.Generation() when it acquired
	depth  int
	ws     sched.WaitSet
}

// NewMutex allocates a mutex.
func NewMutex(t *sched.Thread, name string) *Mutex {
	m := &Mutex{loc: t.NewLoc(), name: name}
	m.ws.SetFootprintLoc(m.loc)
	return m
}

// Lock acquires the mutex, blocking while it is held by another thread.
func (m *Mutex) Lock(t *sched.Thread) {
	t.Point()
	for m.holder != nil && !m.heldBy(t) {
		m.ws.Wait(t)
	}
	m.holder, m.gen = t, t.Generation()
	m.depth++
	t.Record(sched.MemAcquire, m.loc, m.name)
}

// TryLock acquires the mutex if it is free (or already held by t) and
// reports whether it did.
func (m *Mutex) TryLock(t *sched.Thread) bool {
	t.Point()
	if m.holder != nil && !m.heldBy(t) {
		// The failed attempt records nothing, but its result observed the
		// holder; footprint the read so reduction never commutes it past an
		// acquire or release.
		t.Touch(m.loc, false)
		return false
	}
	m.holder, m.gen = t, t.Generation()
	m.depth++
	t.Record(sched.MemAcquire, m.loc, m.name)
	return true
}

// Unlock releases the mutex. Releasing a mutex the thread does not hold
// panics, as that is a bug in the implementation under test.
func (m *Mutex) Unlock(t *sched.Thread) {
	t.Point()
	if !m.heldBy(t) {
		panic("vsync: unlock of mutex not held by this thread")
	}
	t.Record(sched.MemRelease, m.loc, m.name)
	m.depth--
	if m.depth == 0 {
		m.holder = nil
		m.ws.Broadcast(t)
	}
}

// Held reports whether the mutex is currently held by t. It is an assertion
// helper, not a scheduling point; it still footprints the holder read so
// that code branching on it is visible to partial-order reduction.
func (m *Mutex) Held(t *sched.Thread) bool {
	t.Touch(m.loc, false)
	return m.heldBy(t)
}

func (m *Mutex) heldBy(t *sched.Thread) bool {
	return m.holder == t && m.gen == t.Generation()
}

// Cond is a condition variable associated with a Mutex, with Mesa semantics
// (Wait can wake spuriously; callers re-check their condition in a loop).
type Cond struct {
	m  *Mutex
	ws sched.WaitSet
}

// NewCond allocates a condition variable for m. Its wait set shares the
// mutex's footprint location: condition-variable operations synchronize with
// lock transfers on m, so attributing both to one location keeps their
// conflicts visible to partial-order reduction without a second location.
func NewCond(m *Mutex) *Cond {
	c := &Cond{m: m}
	c.ws.SetFootprintLoc(m.loc)
	return c
}

// Wait atomically registers the thread, releases the mutex, parks until a
// signal, and reacquires the mutex before returning. The register-first
// protocol makes the unlock/park window lost-wakeup free.
func (c *Cond) Wait(t *sched.Thread) {
	if !c.m.Held(t) {
		panic("vsync: Cond.Wait without holding the mutex")
	}
	if c.m.depth != 1 {
		panic("vsync: Cond.Wait with reentrant lock depth != 1")
	}
	c.ws.Register(t)
	c.m.Unlock(t)
	c.ws.Wait(t)
	c.m.Lock(t)
}

// Broadcast wakes all waiters. The caller should hold the mutex.
func (c *Cond) Broadcast(t *sched.Thread) { c.ws.Broadcast(t) }

// Signal wakes one waiter (the earliest registered). The caller should hold
// the mutex.
func (c *Cond) Signal(t *sched.Thread) { c.ws.Signal(t) }
