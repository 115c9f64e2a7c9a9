package sched

import "sort"

// WaitSet is the scheduler's blocking primitive. A thread that cannot make
// progress registers on a wait set and parks; a running thread wakes it by
// signaling or broadcasting. Wakeups follow Mesa semantics: a woken thread
// must re-check its wait condition.
//
// Because exactly one logical thread runs at a time, wait-set operations need
// no locking of their own; registration and signaling are atomic with respect
// to the surrounding instrumented operation.
// The zero WaitSet is ready; it keeps its first waiters inline, so it must
// not be copied once a thread registered on it.
type WaitSet struct {
	waiters []waiter // registration order, for deterministic Signal
	inline  [2]waiter
	footLoc int // loc+1 for footprint attribution, 0 = unset
}

// waiter is one registered thread and whether a signal is pending for it. A
// wait set holds a handful of them, so it is searched linearly. A wait set
// may outlive an execution, and a thread stuck in it stays registered; its
// handle serves a later execution under another generation, so an entry is
// the thread's only while both match (see Thread.Generation).
type waiter struct {
	t      *Thread
	gen    uint64
	signal bool
}

// SetFootprintLoc attributes the wait set's operations to a shared-memory
// location for partial-order reduction: two wait-set operations on the same
// object never commute, so they must share a location in the window
// footprints. Owners must call this from their constructor (never lazily:
// location identifiers are only stable across the executions of one
// exploration when they are allocated in deterministic construction order).
// Operations on a wait set without a registered location poison their window
// as conflicting with everything, which is sound but prunes nothing.
func (ws *WaitSet) SetFootprintLoc(loc int) {
	ws.footLoc = loc + 1
}

// touch records the wait-set mutation in the calling thread's current window
// footprint.
func (ws *WaitSet) touch(t *Thread) {
	if !t.sch.track {
		return
	}
	if ws.footLoc > 0 {
		t.sch.noteAccess(ws.footLoc-1, true)
	} else {
		t.sch.noteGlobal()
	}
}

// find returns the index of t's registration, -1 if it has none.
func (ws *WaitSet) find(t *Thread) int {
	for i := range ws.waiters {
		if w := &ws.waiters[i]; w.t == t && w.gen == t.gen {
			return i
		}
	}
	return -1
}

// Register announces that the thread is about to wait. A signal arriving
// between Register and Wait is not lost: Wait returns immediately. This makes
// the condition-variable pattern (register, release lock, wait, reacquire)
// free of lost wakeups.
func (ws *WaitSet) Register(t *Thread) {
	ws.touch(t)
	if ws.find(t) < 0 {
		if ws.waiters == nil {
			ws.waiters = ws.inline[:0]
		}
		ws.waiters = append(ws.waiters, waiter{t: t, gen: t.gen})
	}
}

// Wait parks the thread until it is signaled. If the thread was registered
// and a signal already arrived, Wait consumes it and returns immediately.
// Threads that did not Register first are registered implicitly.
func (ws *WaitSet) Wait(t *Thread) {
	ws.touch(t)
	if i := ws.find(t); i >= 0 && ws.waiters[i].signal {
		ws.remove(i)
		return
	}
	ws.Register(t)
	t.block()
	// The scheduler resumed us because a signal arrived (Broadcast/Signal
	// set the state back to runnable); deregister. The consumption mutates
	// the wait set inside the woken thread's window, so touch again.
	ws.touch(t)
	ws.remove(ws.find(t))
}

func (ws *WaitSet) remove(i int) {
	ws.waiters = append(ws.waiters[:i], ws.waiters[i+1:]...)
}

// wake gives the i'th waiter its signal and makes it runnable if it parked.
// A stale entry takes the signal and wakes nobody.
func (ws *WaitSet) wake(i int) {
	w := &ws.waiters[i]
	w.signal = true
	if w.gen == w.t.gen && w.t.getState() == stateBlocked {
		w.t.setState(stateRunnable)
	}
}

// Broadcast wakes every registered waiter. Waiters that have not parked yet
// keep a pending signal so their Wait returns immediately.
func (ws *WaitSet) Broadcast(t *Thread) {
	ws.touch(t)
	for i := range ws.waiters {
		ws.wake(i)
	}
}

// Signal wakes a single registered waiter. To keep executions deterministic
// the earliest-registered waiter is chosen; the nondeterminism of real
// wakeup order is modeled by the scheduler's interleaving choices after the
// wakeup.
func (ws *WaitSet) Signal(t *Thread) {
	ws.touch(t)
	for i := range ws.waiters {
		if !ws.waiters[i].signal {
			ws.wake(i)
			return
		}
	}
}

// Waiters returns the IDs of currently registered waiters, ascending. It is
// a debugging and testing aid.
func (ws *WaitSet) Waiters() []ThreadID {
	var ids []ThreadID
	for _, w := range ws.waiters {
		ids = append(ids, w.t.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
