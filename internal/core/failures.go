package core

import (
	"fmt"
	"sort"
	"sync"

	"lineup/internal/sched"
)

// RuntimeFailure is one contained execution failure observed during phase-2
// exploration: the subject panicked, hung (blocked on an uninstrumented
// primitive or spun without yielding, caught by the watchdog), or leaked
// goroutines. With Options.MaxFailures > 0 such executions do not abort the
// check; they are classified, recorded, and exploration continues.
type RuntimeFailure struct {
	// Kind classifies the failure (panic / hung / leak).
	Kind sched.FailureKind `json:"kind"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Schedule is the scheduling-decision prefix of the failing execution;
	// sched.ReplaySchedule reproduces the failure from it.
	Schedule []sched.ThreadID `json:"schedule"`
	// Stack is the panicking goroutine's stack (panics only).
	Stack string `json:"stack,omitempty"`
}

func (f RuntimeFailure) String() string {
	return fmt.Sprintf("[%s] %s (schedule prefix %v)", f.Kind, f.Message, f.Schedule)
}

// classifyFailure builds the failure record for a failed execution outcome.
func classifyFailure(out *sched.Outcome) RuntimeFailure {
	f := RuntimeFailure{
		Kind:     out.FailureKind(),
		Schedule: append([]sched.ThreadID(nil), out.Schedule...),
	}
	if err := out.FailureError(); err != nil {
		f.Message = err.Error()
	}
	if f.Kind == sched.FailPanic {
		f.Message = fmt.Sprintf("subject panicked: %v", out.PanicValue)
		f.Stack = string(out.PanicStack)
	}
	return f
}

// TooManyFailuresError aborts a check whose contained failures exceeded
// Options.MaxFailures. Failures holds the first MaxFailures records in
// sequential exploration order.
type TooManyFailuresError struct {
	Limit    int
	Failures []RuntimeFailure
}

func (e *TooManyFailuresError) Error() string {
	return fmt.Sprintf("core: more than %d contained runtime failures; first: %s", e.Limit, e.Failures[0].String())
}

// posFailure pairs a failure with its position in sequential exploration
// order.
type posFailure struct {
	pos sched.Pos
	f   RuntimeFailure
}

// failureCollector accumulates contained failures across (possibly
// concurrent) phase-2 visits. It records every failure it is handed — under
// parallel exploration a superset of the sequential run's, bounded by early
// cancellation — and phase2Acc.resolve prunes to the exact sequential set.
type failureCollector struct {
	max int
	mu  sync.Mutex
	fs  []posFailure
}

func newFailureCollector(max int) *failureCollector {
	return &failureCollector{max: max}
}

// add records a failure at position p (copied) and reports whether
// exploration should continue. It must NOT stop at the (max+1)-th *arrival* —
// under parallel exploration arrivals are timing-dependent, and cancelling
// there can abandon failures that precede the true abort point in sequential
// order. Instead it stops only when p is at or past the (max+1)-th smallest
// position known so far: that bound only shrinks toward the true sequential
// abort point as failures arrive, so the cancellation position is always at
// or after it, and the explorer's before-the-cancel completeness guarantee
// keeps every sequentially-earlier failure in the collection. A sequential
// exploration adds in position order, where this is the (max+1)-th arrival.
func (c *failureCollector) add(p sched.Pos, f RuntimeFailure) bool {
	c.mu.Lock()
	c.fs = append(c.fs, posFailure{pos: p.Clone(), f: f})
	within := len(c.fs) <= c.max
	c.mu.Unlock()
	return within || p.Before(c.sorted()[c.max].pos)
}

func (c *failureCollector) sorted() []posFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]posFailure(nil), c.fs...)
	sort.Slice(out, func(i, j int) bool { return out[i].pos.Before(out[j].pos) })
	return out
}
