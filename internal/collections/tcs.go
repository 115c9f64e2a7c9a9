package collections

import (
	"fmt"

	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// Task completion states.
const (
	tcsPending = iota
	tcsResult
	tcsCanceled
	tcsException
)

// tcsState packs the completion status and its payload into a single word
// so that publication is one atomic CAS (like the .NET task state word).
type tcsState struct {
	status int
	value  int
}

// TaskCompletionSource is the corrected completion source: exactly one
// TrySet* operation wins; the others observe failure. Wait blocks until the
// task completes. State and payload transition together in a single
// interlocked CAS, which is what the (Pre) version's check-then-act race
// (root cause G) breaks.
type TaskCompletionSource struct {
	pre   bool
	state *vsync.Atomic[tcsState] // nil in the (Pre) form
	// status and value hold the (Pre) form's state in two plain cells.
	status *vsync.Cell[int] // BUG: plain check-then-act where CAS is needed
	value  *vsync.Cell[int]
	ws     sched.WaitSet
}

// NewTaskCompletionSource constructs a pending completion source.
func NewTaskCompletionSource(t *sched.Thread) *TaskCompletionSource {
	s := &TaskCompletionSource{
		state: vsync.NewAtomic(t, "TCS.state", tcsState{status: tcsPending}),
	}
	s.ws.SetFootprintLoc(t.NewLoc())
	return s
}

// NewTaskCompletionSourcePre constructs a pending (Pre) completion source.
// It reproduces root cause G: the TrySet* family checks the status and then
// stores the new state as two separate accesses instead of one interlocked
// CAS, so two racing completions can both observe "pending" and both report
// success — while only the later one's payload survives. No serial
// execution lets two TrySet* calls both win.
func NewTaskCompletionSourcePre(t *sched.Thread) *TaskCompletionSource {
	s := &TaskCompletionSource{
		pre:    true,
		status: vsync.NewCell(t, "TCS.status", tcsPending),
		value:  vsync.NewCell(t, "TCS.value", 0),
	}
	s.ws.SetFootprintLoc(t.NewLoc())
	return s
}

func (s *TaskCompletionSource) trySet(t *sched.Thread, status, v int) bool {
	if s.pre {
		if s.status.Load(t) != tcsPending { // BUG: check...
			return false
		}
		s.value.Store(t, v)
		s.status.Store(t, status) // BUG: ...then act, without atomicity
		s.ws.Broadcast(t)
		return true
	}
	if s.state.CompareAndSwap(t, tcsState{status: tcsPending}, tcsState{status: status, value: v}) {
		s.ws.Broadcast(t)
		return true
	}
	return false
}

// pending reports whether the task has not completed yet.
func (s *TaskCompletionSource) pending(t *sched.Thread) bool {
	if s.pre {
		return s.status.Load(t) == tcsPending
	}
	return s.state.Load(t).status == tcsPending
}

// load reads the completion state (in the (Pre) form, status then value).
func (s *TaskCompletionSource) load(t *sched.Thread) tcsState {
	if s.pre {
		return tcsState{status: s.status.Load(t), value: s.value.Load(t)}
	}
	return s.state.Load(t)
}

// TrySetResult completes the task with a value, reporting whether it won.
func (s *TaskCompletionSource) TrySetResult(t *sched.Thread, v int) bool {
	return s.trySet(t, tcsResult, v)
}

// TrySetCanceled cancels the task, reporting whether it won.
func (s *TaskCompletionSource) TrySetCanceled(t *sched.Thread) bool {
	return s.trySet(t, tcsCanceled, 0)
}

// TrySetException faults the task, reporting whether it won.
func (s *TaskCompletionSource) TrySetException(t *sched.Thread) bool {
	return s.trySet(t, tcsException, 0)
}

// SetResult completes the task with a value; it reports false (the .NET
// version throws) if the task was already completed.
func (s *TaskCompletionSource) SetResult(t *sched.Thread, v int) bool {
	return s.TrySetResult(t, v)
}

// SetCanceled cancels the task; false if already completed.
func (s *TaskCompletionSource) SetCanceled(t *sched.Thread) bool {
	return s.TrySetCanceled(t)
}

// SetException faults the task; false if already completed.
func (s *TaskCompletionSource) SetException(t *sched.Thread) bool {
	return s.TrySetException(t)
}

// render formats a completion state canonically.
func (st tcsState) render() string {
	switch st.status {
	case tcsResult:
		return fmt.Sprintf("result(%d)", st.value)
	case tcsCanceled:
		return "canceled"
	case tcsException:
		return "exception"
	default:
		return "pending"
	}
}

// Wait blocks until the task completes and returns its outcome.
func (s *TaskCompletionSource) Wait(t *sched.Thread) string {
	for s.pending(t) {
		s.ws.Wait(t)
	}
	return s.load(t).render()
}

// TryResult returns the current outcome without blocking.
func (s *TaskCompletionSource) TryResult(t *sched.Thread) string {
	return s.load(t).render()
}
