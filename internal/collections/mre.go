package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// ManualResetEventSlim is the corrected manual-reset event of Fig. 9. The
// state word packs the set flag into bit 0 and the waiter count into the
// remaining bits, and is manipulated with interlocked compare-and-swap, like
// the .NET implementation in which the paper found root cause A. Set wakes
// all registered waiters (and skips the wakeup entirely when the state says
// the event is already set — the optimization that the (Pre) version's CAS
// typo turns into a lost wakeup).
type ManualResetEventSlim struct {
	pre bool
	// state = (waiters << 1) | isSet
	state *vsync.AtomicInt
	ws    sched.WaitSet
}

// NewManualResetEventSlim constructs an event in the unset state.
func NewManualResetEventSlim(t *sched.Thread) *ManualResetEventSlim {
	e := &ManualResetEventSlim{state: vsync.NewAtomicInt(t, "MRE.state", 0)}
	e.ws.SetFootprintLoc(t.NewLoc())
	return e
}

// NewManualResetEventSlimPre constructs a (Pre) event in the unset state. It
// reproduces root cause A (Fig. 9), the bug the paper describes in most
// detail: Wait's compare-and-swap update reads the shared state word a
// second time while computing the new value —
//
//	int localstate = state;
//	int newstate = f(state);              // BUG: should be f(localstate)
//	compare_and_swap(&state, localstate, newstate);
//
// If another thread performs Set between the two reads and Reset before the
// CAS, the CAS succeeds (the state changed and changed back — the paper's
// "pernicious typographical error") but the new value carries a ghost set
// bit. A later Set then observes "already set" and skips the wakeup, so the
// waiter blocks forever: the stuck history of Fig. 9 with no stuck serial
// witness.
func NewManualResetEventSlimPre(t *sched.Thread) *ManualResetEventSlim {
	e := NewManualResetEventSlim(t)
	e.pre = true
	return e
}

// Set signals the event, waking all current waiters. It skips the wakeup
// when the state word claims the event is already set, which the corrupted
// state produced by the (Pre) form's Wait typo turns into a lost wakeup.
func (e *ManualResetEventSlim) Set(t *sched.Thread) {
	for {
		s := e.state.Load(t)
		if s&1 == 1 {
			return // already set: nobody can be waiting
		}
		if e.state.CompareAndSwap(t, s, 1) {
			if s>>1 > 0 {
				e.ws.Broadcast(t)
			}
			return
		}
	}
}

// Reset returns the event to the unset state.
func (e *ManualResetEventSlim) Reset(t *sched.Thread) {
	for {
		s := e.state.Load(t)
		if s&1 == 0 {
			return
		}
		if e.state.CompareAndSwap(t, s, s&^1) {
			return
		}
	}
}

// Wait blocks until the event is set. The (Pre) form contains the seeded
// typo.
func (e *ManualResetEventSlim) Wait(t *sched.Thread) {
	for {
		s := e.state.Load(t)
		if s&1 == 1 {
			return
		}
		ns := s + 2
		if e.pre {
			ns = e.state.Load(t) + 2 // BUG (root cause A): re-reads state; correct: ns := s + 2
		}
		if e.state.CompareAndSwap(t, s, ns) {
			// The CAS and the park are adjacent instrumented points, so a
			// Set cannot slip in between under the scheduler's granularity;
			// ws.Wait would consume a pending signal in any case.
			e.ws.Wait(t)
			// Woken by Set (which zeroed the waiter count); re-check.
			continue
		}
	}
}

// IsSet reports whether the event is currently set.
func (e *ManualResetEventSlim) IsSet(t *sched.Thread) bool {
	return e.state.Load(t)&1 == 1
}

// WaitOne is Wait(0): it reports whether the event is set without blocking.
func (e *ManualResetEventSlim) WaitOne(t *sched.Thread) bool {
	return e.IsSet(t)
}
