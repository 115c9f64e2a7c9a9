// Package history implements the formal vocabulary of the paper's Section 2:
// events, histories, operations, the precedence order <H, thread
// subhistories, serial and stuck histories, serial witnesses, and
// specification sets synthesized from serial executions (the observation
// sets of Section 4.2), including the determinism check of Section 2.1.2.
package history

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes call and return events.
type Kind int

const (
	// Call is an invocation event.
	Call Kind = iota
	// Return is a response event.
	Return
)

// Event is one element of a history: an invocation or response of an
// operation on the (single) object under test, associated with a thread.
type Event struct {
	Thread int    // logical thread index
	Kind   Kind   // Call or Return
	Op     string // operation display name, e.g. "Add(200)"
	Result string // canonical result string; Return events only
	Index  int    // dense per-execution operation identifier pairing call/return
}

// History is a finite sequence of events, optionally stuck (ending with the
// special symbol '#' of Section 2.3). All histories produced by the runner
// are well-formed: each thread subhistory is serial.
type History struct {
	Events []Event
	Stuck  bool
}

// Op is an operation of a history: an invocation with its matching response
// if present (Section 2.1.3).
type Op struct {
	Thread   int
	Name     string
	Result   string
	Complete bool
	CallPos  int // index of the call event in Events
	RetPos   int // index of the return event, -1 if pending
	Index    int // the operation identifier
}

// String renders the operation in the paper's bracketed-tuple form,
// [o i/r t] for complete and [o i/* t] for pending operations.
func (o Op) String() string {
	if o.Complete {
		return fmt.Sprintf("[%s/%s %d]", o.Name, o.Result, o.Thread)
	}
	return fmt.Sprintf("[%s/* %d]", o.Name, o.Thread)
}

// Ops extracts the operations of the history in call order.
func (h *History) Ops() []Op {
	out := make([]Op, 0, (len(h.Events)+1)/2)
	at := make(map[int]int, cap(out)) // operation identifier -> position in out
	for pos, e := range h.Events {
		switch e.Kind {
		case Call:
			at[e.Index] = len(out)
			out = append(out, Op{
				Thread: e.Thread, Name: e.Op, CallPos: pos, RetPos: -1, Index: e.Index,
			})
		case Return:
			i, ok := at[e.Index]
			if !ok {
				panic("history: return without matching call")
			}
			op := &out[i]
			op.Result = e.Result
			op.Complete = true
			op.RetPos = pos
		}
	}
	return out
}

// Pending returns the pending (incomplete) operations of the history.
func (h *History) Pending() []Op {
	var out []Op
	for _, op := range h.Ops() {
		if !op.Complete {
			out = append(out, op)
		}
	}
	return out
}

// Complete reports whether the history has no pending calls.
func (h *History) Complete() bool { return len(h.Pending()) == 0 }

// ThreadSub returns the thread subhistory H|t.
func (h *History) ThreadSub(t int) []Event {
	var out []Event
	for _, e := range h.Events {
		if e.Thread == t {
			out = append(out, e)
		}
	}
	return out
}

// WellFormed reports whether every thread subhistory is serial: it starts
// with a call, calls and returns alternate, and each return matches the
// immediately preceding call (Section 2.1.1).
func (h *History) WellFormed() bool {
	type st struct {
		pendingIdx int
		pending    bool
	}
	states := make(map[int]*st)
	for _, e := range h.Events {
		s := states[e.Thread]
		if s == nil {
			s = &st{}
			states[e.Thread] = s
		}
		switch e.Kind {
		case Call:
			if s.pending {
				return false
			}
			s.pending = true
			s.pendingIdx = e.Index
		case Return:
			if !s.pending || s.pendingIdx != e.Index {
				return false
			}
			s.pending = false
		}
	}
	return true
}

// Serial reports whether the whole history is serial: calls and returns
// alternate globally and each return matches the immediately preceding call.
// A stuck serial history may end with a single pending call.
func (h *History) Serial() bool {
	pending := false
	pendingIdx := -1
	for _, e := range h.Events {
		switch e.Kind {
		case Call:
			if pending {
				return false
			}
			pending = true
			pendingIdx = e.Index
		case Return:
			if !pending || e.Index != pendingIdx {
				return false
			}
			pending = false
		}
	}
	if pending && !h.Stuck {
		return false
	}
	return true
}

// Precedes reports e1 <H e2: the response of e1 precedes the invocation of
// e2 in the history (Section 2.1.3).
func Precedes(e1, e2 Op) bool {
	return e1.Complete && e1.RetPos < e2.CallPos
}

// Interleaving renders the history in the observation-file notation of
// Fig. 7: "1[ ]1 3[ ]3 ..." where i[ and ]i are the call and return of
// operation number i (1-based, numbered per observation grouping), with a
// trailing # for stuck histories. number maps operation Index to the 1-based
// display number.
func (h *History) Interleaving(number map[int]int) string {
	var b strings.Builder
	for i, e := range h.Events {
		if i > 0 {
			b.WriteByte(' ')
		}
		n := number[e.Index]
		if e.Kind == Call {
			fmt.Fprintf(&b, "%d[", n)
		} else {
			fmt.Fprintf(&b, "]%d", n)
		}
	}
	if h.Stuck {
		if len(h.Events) > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('#')
	}
	return b.String()
}

// String renders the history as a sequence of events, one per line, in the
// paper's (object op thread) notation.
func (h *History) String() string {
	var b strings.Builder
	for _, e := range h.Events {
		if e.Kind == Call {
			fmt.Fprintf(&b, "(call %s T%d)\n", e.Op, e.Thread)
		} else {
			fmt.Fprintf(&b, "(ret %s=%s T%d)\n", e.Op, e.Result, e.Thread)
		}
	}
	if h.Stuck {
		b.WriteString("#\n")
	}
	return b.String()
}

// Threads returns the sorted set of thread indices appearing in the history.
func (h *History) Threads() []int {
	seen := make(map[int]bool)
	for _, e := range h.Events {
		seen[e.Thread] = true
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
