package sched

import (
	"fmt"
	"slices"
)

// Reduction selects the partial-order reduction strategy of an exploration.
// Reduction never changes what the exploration can observe: every pruned
// schedule is Mazurkiewicz-equivalent to a schedule that is still explored
// (an explored schedule differing only in the order of adjacent independent
// steps), so the set of distinct histories — and hence every check verdict —
// is identical with reduction on and off. See DESIGN.md, "Partial-order
// reduction".
type Reduction int

const (
	// ReductionSleep, the zero value, prunes branches with sleep sets
	// (Godefroid): a thread whose deferred next step is independent of
	// everything executed since the exploration last covered it is not
	// rescheduled, because the resulting execution would only commute
	// independent steps of an already-explored one. A serial exploration
	// (Config.Serial) is never reduced: it must enumerate every serial order.
	ReductionSleep Reduction = iota
	// ReductionNone explores the full preemption-bounded schedule tree: the
	// reference the reduction is held to.
	ReductionNone
)

func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSleep:
		return "sleep"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

// MarshalText and UnmarshalText give a Reduction its one text form ("sleep",
// "none"): the spelling every file a check is written down in uses.
func (r Reduction) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

func (r *Reduction) UnmarshalText(b []byte) error {
	switch string(b) {
	case "sleep":
		*r = ReductionSleep
	case "none":
		*r = ReductionNone
	default:
		return fmt.Errorf("sched: unknown reduction %q (want sleep or none)", b)
	}
	return nil
}

// LocAccess is one shared-memory location touched by a decision window,
// collapsed to the strongest access class seen (write subsumes read).
type LocAccess struct {
	Loc   int  `json:"l"`
	Write bool `json:"w,omitempty"`
}

// Footprint summarizes everything one decision window — the steps executed
// between two scheduling decisions — did that another thread's step could
// depend on: the shared locations it touched (with read/write class), whether
// it recorded history events (operation call/return boundaries, which must
// keep their global order), and a Global poison flag for windows whose effects
// could not be attributed (partial windows of failed executions, wait-set
// operations on objects without a registered location).
//
// Two windows commute — executing them in either order yields the same
// program state and the same history — iff their footprints do not conflict.
type Footprint struct {
	Global bool        `json:"g,omitempty"`
	Event  bool        `json:"e,omitempty"`
	Acc    []LocAccess `json:"a,omitempty"`
}

// add merges one access into the footprint, deduplicating by location and
// upgrading the access class to write if either occurrence wrote. Windows are
// short (a handful of instrumented steps), so the linear scan beats a map.
func (f *Footprint) add(loc int, write bool) {
	for i := range f.Acc {
		if f.Acc[i].Loc == loc {
			f.Acc[i].Write = f.Acc[i].Write || write
			return
		}
	}
	f.Acc = append(f.Acc, LocAccess{Loc: loc, Write: write})
}

func (f *Footprint) reset() {
	f.Global = false
	f.Event = false
	f.Acc = f.Acc[:0]
}

// set makes f a copy of g in f's own buffer.
func (f *Footprint) set(g *Footprint) {
	f.Global, f.Event, f.Acc = g.Global, g.Event, append(f.Acc[:0], g.Acc...)
}

// footStore holds the footprints of one decision node's retired branches.
// Only the node's descendants read them, and the DFS pops those first, so a
// recycled node resets its store, keeping each record's Acc buffer; until
// then a record is never written again. Under a preemption bound a node
// retires at most its free continuation, so the first record is inline.
type footStore struct {
	n     int // records held
	first Footprint
	rest  []Footprint
}

// keep returns a copy of f held in the store, which makes room for n records
// when it is full. Records already handed out stay where they are.
func (st *footStore) keep(f *Footprint, n int) *Footprint {
	r := &st.first
	if st.n > 0 {
		if len(st.rest) == cap(st.rest) {
			st.rest = slices.Grow(st.rest, max(n-1-len(st.rest), 1))
		}
		st.rest = st.rest[:len(st.rest)+1]
		r = &st.rest[len(st.rest)-1]
	}
	st.n++
	r.set(f)
	return r
}

// reset forgets every record, keeping the buffers.
func (st *footStore) reset() { st.n, st.rest = 0, st.rest[:0] }

// ConflictsWith reports whether the two windows fail to commute: either one
// is poisoned, both carry history events (their order is observable in the
// recorded history), or they touch a common location with at least one write.
// A nil footprint means "unknown" and conservatively conflicts with
// everything.
func (f *Footprint) ConflictsWith(g *Footprint) bool {
	if f == nil || g == nil {
		return true
	}
	if f.Global || g.Global {
		return true
	}
	if f.Event && g.Event {
		return true
	}
	for _, a := range f.Acc {
		for _, b := range g.Acc {
			if a.Loc == b.Loc && (a.Write || b.Write) {
				return true
			}
		}
	}
	return false
}

// writeClass maps a memory event kind to its conflict class. Synchronizing
// operations (atomics, lock acquire/release) are writes: two sync operations
// on the same object never commute.
func writeClass(kind MemKind) bool {
	switch kind {
	case MemRead, MemAtomicLoad:
		return false
	default:
		return true
	}
}

// sleepEntry is one sleeping thread at a DFS node: scheduling tid at the node
// is provably redundant, because its next step — whose window footprint is
// foot — is independent of everything executed since the branch that ran tid
// here was fully explored. foot is a record in the store of an ancestor node
// (or of the node itself), never a window buffer, so entries are copied freely
// down the stack; a WorkUnit carries copies (BranchRecord), never entries.
type sleepEntry struct {
	tid  ThreadID
	foot *Footprint
}

// BranchRecord serializes one explored-and-retired branch of a decision
// level of a WorkUnit: the thread the branch scheduled and the window
// footprint its first step produced. A replayed or resumed exploration
// rebuilds the level's sleep-set state from these records; they cannot be
// recomputed from the branch path alone, because they describe subtrees that
// were already finished when the unit was cut.
type BranchRecord struct {
	Thread ThreadID  `json:"t"`
	Foot   Footprint `json:"f"`
}

// footprintObserver is implemented by controllers (the DFS explorer) that
// consume per-window footprints. The scheduler delivers the accumulated
// window immediately before each Pick and once more when the execution ends;
// the observer must copy what it keeps — the scheduler reuses the buffer.
type footprintObserver interface {
	observeWindow(f *Footprint)
}

// globalFoot is the footprint of a window not recorded faithfully (the
// execution failed mid-window) or not yet recorded: it conflicts with all.
var globalFoot = &Footprint{Global: true}
