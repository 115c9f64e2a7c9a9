package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// SemaphoreSlim is the corrected semaphore: Wait blocks while the count is
// zero, Release adds permits. WaitZero is the non-blocking Wait(0) overload.
//
// WaitZero and CurrentCount read the count with an unsynchronized fast path
// before (or instead of) taking the lock — the "timing optimization
// (similar to double-checked locking) that does not affect correctness, but
// breaks serializability" of Section 5.6, and one of the benign data races
// the paper's race-detection comparison found.
type SemaphoreSlim struct {
	pre   bool
	mu    *vsync.Mutex
	cond  *vsync.Cond // nil in the (Pre) form
	count *vsync.Cell[int]
	// waiters and ws are the (Pre) form's interlocked waiter count and the
	// wait set its waiters park on.
	waiters *vsync.AtomicInt
	ws      sched.WaitSet
}

// NewSemaphoreSlim constructs a semaphore with the given initial count.
func NewSemaphoreSlim(t *sched.Thread, initial int) *SemaphoreSlim {
	mu := vsync.NewMutex(t, "SemaphoreSlim.lock")
	return &SemaphoreSlim{
		mu:    mu,
		cond:  vsync.NewCond(mu),
		count: vsync.NewCell(t, "SemaphoreSlim.count", initial),
	}
}

// NewSemaphoreSlimPre constructs a (Pre) semaphore with the given initial
// count. It reproduces root cause D, a lost wakeup. The fast-path design
// keeps the monitor out of Release: a waiter that finds no permit publishes
// itself in an interlocked waiter count and parks; Release checks the
// waiter count and only then wakes. The seeded defect is the ordering: the
// waiter publishes its count *after* releasing the monitor, so a Release
// that runs in the window observes zero waiters, skips the wakeup, and the
// waiter parks forever even though a permit is available — a stuck history
// with no stuck serial witness. (The corrected SemaphoreSlim keeps waiters
// registered through the monitor's condition variable, closing the
// window.)
func NewSemaphoreSlimPre(t *sched.Thread, initial int) *SemaphoreSlim {
	s := &SemaphoreSlim{
		pre:     true,
		mu:      vsync.NewMutex(t, "SemaphoreSlim.lock"),
		count:   vsync.NewCell(t, "SemaphoreSlim.count", initial),
		waiters: vsync.NewAtomicInt(t, "SemaphoreSlim.waiters", 0),
	}
	s.ws.SetFootprintLoc(t.NewLoc())
	return s
}

// Wait acquires one permit, blocking while none is available. BUG (root
// cause D, (Pre) only): the waiter count is published only after the
// monitor is released, leaving a window in which Release sees no waiters.
func (s *SemaphoreSlim) Wait(t *sched.Thread) {
	if s.pre {
		for {
			s.mu.Lock(t)
			c := s.count.Load(t)
			if c > 0 {
				s.count.Store(t, c-1)
				s.mu.Unlock(t)
				return
			}
			s.mu.Unlock(t)
			s.waiters.Add(t, 1) // BUG: published outside the monitor, too late
			s.ws.Wait(t)
			s.waiters.Add(t, -1)
		}
	}
	s.mu.Lock(t)
	for s.count.Load(t) == 0 {
		s.cond.Wait(t)
	}
	s.count.Store(t, s.count.Load(t)-1)
	s.mu.Unlock(t)
}

// WaitZero is Wait(0): it acquires a permit only if one is immediately
// available. The unsynchronized fast-path read is a benign data race; the
// (Pre) form has no fast path and reads the count once under the monitor.
func (s *SemaphoreSlim) WaitZero(t *sched.Thread) bool {
	if s.pre {
		s.mu.Lock(t)
		defer s.mu.Unlock(t)
		c := s.count.Load(t)
		if c == 0 {
			return false
		}
		s.count.Store(t, c-1)
		return true
	}
	if s.count.Load(t) == 0 { // benign race: double-checked fast path
		return false
	}
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if s.count.Load(t) == 0 {
		return false
	}
	s.count.Store(t, s.count.Load(t)-1)
	return true
}

// Release returns n permits and wakes waiters. The (Pre) form wakes them
// outside the monitor, and only if the (stale) waiter count says there are
// any.
func (s *SemaphoreSlim) Release(t *sched.Thread, n int) int {
	s.mu.Lock(t)
	prev := s.count.Load(t)
	s.count.Store(t, prev+n)
	if s.pre {
		s.mu.Unlock(t)
		if s.waiters.Load(t) > 0 {
			s.ws.Broadcast(t)
		}
		return prev
	}
	s.cond.Broadcast(t)
	s.mu.Unlock(t)
	return prev
}

// CurrentCount returns the number of available permits (benign racy read,
// like the .NET property).
func (s *SemaphoreSlim) CurrentCount(t *sched.Thread) int {
	return s.count.Load(t)
}
