package history

import (
	"fmt"
	"math"
	"strings"
)

// SerialOp is one completed operation of a serial history.
type SerialOp struct {
	Thread int
	Name   string
	Result string
}

// SerialPending is the trailing pending invocation of a stuck serial history.
type SerialPending struct {
	Thread int
	Name   string
}

// SerialHistory is a serial history in compact form: completed operations in
// execution order, plus the pending invocation if the history is stuck (the
// form H(o i t)# of Section 2.3).
type SerialHistory struct {
	Ops     []SerialOp
	Pending *SerialPending
}

// Stuck reports whether the serial history is stuck.
func (s *SerialHistory) Stuck() bool { return s.Pending != nil }

// Key is a canonical encoding of the serial history, used for deduplication.
func (s *SerialHistory) Key() string {
	var b strings.Builder
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "%d:%s=%s;", op.Thread, op.Name, op.Result)
	}
	if s.Pending != nil {
		fmt.Fprintf(&b, "%d:%s=#", s.Pending.Thread, s.Pending.Name)
	}
	return b.String()
}

// String renders the serial history as a readable one-liner.
func (s *SerialHistory) String() string {
	parts := make([]string, 0, len(s.Ops)+1)
	for _, op := range s.Ops {
		parts = append(parts, fmt.Sprintf("T%d:%s=%s", op.Thread, op.Name, op.Result))
	}
	if s.Pending != nil {
		parts = append(parts, fmt.Sprintf("T%d:%s #", s.Pending.Thread, s.Pending.Name))
	}
	return strings.Join(parts, " ")
}

// ToSerial converts a serial History into its compact form. It panics if the
// history is not serial (a framework bug, since only phase-1 executions are
// converted).
func ToSerial(h *History) *SerialHistory {
	if !h.Serial() {
		panic("history: ToSerial on a non-serial history")
	}
	// Serial means calls and returns alternate, with at most a trailing call.
	s := &SerialHistory{Ops: make([]SerialOp, 0, len(h.Events)/2)}
	for i := 0; i < len(h.Events); i += 2 {
		call := h.Events[i]
		if i+1 == len(h.Events) {
			s.Pending = &SerialPending{Thread: call.Thread, Name: call.Op}
			break
		}
		s.Ops = append(s.Ops, SerialOp{Thread: call.Thread, Name: call.Op, Result: h.Events[i+1].Result})
	}
	if h.Stuck && s.Pending == nil {
		// A stuck serial execution whose last running thread blocked before
		// invoking any operation has no pending call; it contributes no
		// stuck witness and is not expected here.
		panic("history: stuck serial history without pending operation")
	}
	return s
}

// NondetWitness reports a violation of determinism (line 4 of Fig. 5): two
// serial histories whose longest common prefix ends in a call, i.e. the same
// serialized prefix and the same next invocation continued with different
// responses (or one response and one block).
type NondetWitness struct {
	Prefix  []SerialOp
	Thread  int
	Call    string
	Result1 string // first observed continuation ("#" = blocked)
	Result2 string // conflicting continuation
}

// String renders the witness for reports.
func (w *NondetWitness) String() string {
	parts := make([]string, 0, len(w.Prefix))
	for _, op := range w.Prefix {
		parts = append(parts, fmt.Sprintf("T%d:%s=%s", op.Thread, op.Name, op.Result))
	}
	return fmt.Sprintf("after serial prefix [%s], call T%d:%s returned both %q and %q",
		strings.Join(parts, " "), w.Thread, w.Call, w.Result1, w.Result2)
}

// step labels one trie edge: a completed operation, or with pending set the
// blocked invocation that ends a stuck history. Steps are interned to dense
// ids, so a trie walk compares integers.
type step struct {
	thread  int
	name    string
	result  string
	pending bool
}

// outcome is how the step's call continued: its result, or "#" for a block.
func (st step) outcome() string {
	if st.pending {
		return "#"
	}
	return st.result
}

// trie is a node of a prefix tree over interned steps. Fan-out is a handful
// of edges (threads times observed results), so children are scanned.
type trie[V any] struct {
	kids []edge[V]
	val  V
}

type edge[V any] struct {
	step int32
	to   *trie[V]
}

func (n *trie[V]) child(id int32) *trie[V] {
	for _, e := range n.kids {
		if e.step == id {
			return e.to
		}
	}
	return nil
}

func (n *trie[V]) grow(id int32, val V) *trie[V] {
	to := &trie[V]{val: val}
	n.kids = append(n.kids, edge[V]{id, to})
	return to
}

// group holds the stored histories with one thread signature: the same
// thread subhistories, so they are all full or all stuck, and an operation is
// identified by its rank in thread-major order: order[i][k] is the rank of the
// operation at serial position k of hist[i] (a pending call comes last). The
// signature is the group's path in the signature trie and nothing else: a
// string rendering of it would have to be injective over arbitrary results.
type group struct {
	hist  []*SerialHistory
	order [][]int32
}

// Spec is a specification synthesized from serial executions: the sets A
// (full serial histories) and B (stuck serial histories) of Fig. 5, grouped
// by thread signature as in the observation-file format, together with an
// incremental determinism check. Histories live in a prefix trie, so one walk
// per Add deduplicates (the leaf exists), checks determinism (a node whose new
// edge repeats a sibling's call with another outcome is a longest common
// prefix ending in a call) and stores. Add must not run concurrently with
// anything; the Witness methods may run concurrently with each other.
type Spec struct {
	ids      map[step]int32
	steps    []step
	root     trie[*SerialHistory] // serial order; a node holds the stored history that ends there
	sigs     trie[*group]         // thread subhistories, thread-major
	groups   []*group             // first-seen order
	conflict *NondetWitness
	nFull    int
	nStuck   int
	path     []int32 // Add's scratch: the step ids of the history being added
}

// NewSpec creates an empty specification.
func NewSpec() *Spec {
	return &Spec{ids: make(map[step]int32)}
}

func (sp *Spec) intern(st step) int32 {
	id, ok := sp.ids[st]
	if !ok {
		id = int32(len(sp.steps))
		sp.ids[st] = id
		sp.steps = append(sp.steps, st)
	}
	return id
}

// threadMajor calls visit with the indices 0..n-1 ordered by thread(i), ties
// in index order. Histories have a handful of threads, so it rescans instead
// of sorting (and allocating).
func threadMajor(n int, thread func(i int) int, visit func(i int)) {
	for last, started := 0, false; ; started = true {
		cur, found := 0, false
		for i := 0; i < n; i++ {
			if t := thread(i); (!started || t > last) && (!found || t < cur) {
				cur, found = t, true
			}
		}
		if !found {
			return
		}
		for i := 0; i < n; i++ {
			if thread(i) == cur {
				visit(i)
			}
		}
		last = cur
	}
}

// Add records one serial history (full or stuck) into the specification,
// updating the determinism check.
func (sp *Spec) Add(s *SerialHistory) {
	path := sp.path[:0]
	for _, op := range s.Ops {
		path = append(path, sp.intern(step{thread: op.Thread, name: op.Name, result: op.Result}))
	}
	if s.Pending != nil {
		path = append(path, sp.intern(step{thread: s.Pending.Thread, name: s.Pending.Name, pending: true}))
	}
	sp.path = path

	n := &sp.root
	for k, id := range path {
		next := n.child(id)
		if next == nil {
			// Only a new edge can introduce a conflict: existing siblings were
			// checked against each other when the later one was added.
			sp.checkDeterminism(n, id, s, k)
			next = n.grow(id, nil)
		}
		n = next
	}
	if n.val != nil {
		return // duplicate
	}
	n.val = s

	order := make([]int32, len(path))
	thread := func(i int) int { return sp.steps[path[i]].thread }
	g, rank := &sp.sigs, int32(0)
	threadMajor(len(path), thread, func(i int) {
		next := g.child(path[i])
		if next == nil {
			next = g.grow(path[i], nil)
		}
		g = next
		order[i] = rank
		rank++
	})
	if g.val == nil {
		g.val = &group{}
		sp.groups = append(sp.groups, g.val)
	}
	if s.Stuck() {
		sp.nStuck++
	} else {
		sp.nFull++
	}
	g.val.hist = append(g.val.hist, s)
	g.val.order = append(g.val.order, order)
}

// checkDeterminism records the first determinism conflict: id is about to
// become a new edge of n, the node of the serial prefix s.Ops[:k]; a sibling
// edge with the same call and a different outcome is the conflict.
func (sp *Spec) checkDeterminism(n *trie[*SerialHistory], id int32, s *SerialHistory, k int) {
	if sp.conflict != nil {
		return
	}
	st := sp.steps[id]
	for _, e := range n.kids {
		if prev := sp.steps[e.step]; prev.thread == st.thread && prev.name == st.name {
			sp.conflict = &NondetWitness{
				Prefix: append([]SerialOp(nil), s.Ops[:k]...), Thread: st.thread, Call: st.name,
				Result1: prev.outcome(), Result2: st.outcome(),
			}
			return
		}
	}
}

// Nondeterministic reports whether the recorded set of serial histories is
// nondeterministic, together with a witness.
func (sp *Spec) Nondeterministic() (*NondetWitness, bool) {
	return sp.conflict, sp.conflict != nil
}

// NumFull returns the number of distinct full serial histories (the |A| of
// the paper's phase-1 statistics).
func (sp *Spec) NumFull() int { return sp.nFull }

// NumStuck returns the number of distinct stuck serial histories (|B|).
func (sp *Spec) NumStuck() int { return sp.nStuck }

// Groups returns the stored histories group by group, groups in first-seen
// order and each group's histories in insertion order: the sections of an
// observation file.
func (sp *Spec) Groups() [][]*SerialHistory {
	out := make([][]*SerialHistory, len(sp.groups))
	for i, g := range sp.groups {
		out[i] = g.hist
	}
	return out
}

// smallHistory sizes the stack buffers of a witness search; longer histories
// allocate.
const smallHistory = 16

// WitnessOps is the witness search behind WitnessFull (stuck < 0) and
// WitnessStuck (H[e] for e the pending operation of thread stuck: the other
// pending operations are left out), on a history's operations in call order
// as History.Ops gives them. It looks in the group named by the thread
// subhistories of what it keeps for a stored history whose serial order
// respects "a before b if hi(a) < lo(b)", lo and hi being the call's and the
// return's positions; a stuck witness's pending call comes last in every
// candidate and constrains nothing.
func (sp *Spec) WitnessOps(ops []Op, stuck int) (*SerialHistory, bool) {
	var idBuf, keepBuf [smallHistory]int32
	var loBuf, hiBuf [smallHistory]int
	ids, keep, lo, hi := idBuf[:0], keepBuf[:0], loBuf[:], hiBuf[:]
	if len(ops) > smallHistory {
		lo, hi = make([]int, len(ops)), make([]int, len(ops))
	}
	for i := range ops {
		op := &ops[i]
		if stuck >= 0 && !op.Complete && op.Thread != stuck {
			continue
		}
		id, ok := sp.ids[step{thread: op.Thread, name: op.Name, result: op.Result, pending: !op.Complete}]
		if !ok {
			return nil, false
		}
		ids, keep = append(ids, id), append(keep, int32(i))
	}
	g, rank := &sp.sigs, 0
	threadMajor(len(keep), func(k int) int { return ops[keep[k]].Thread }, func(k int) {
		if g != nil {
			g = g.child(ids[k])
		}
		op := &ops[keep[k]]
		lo[rank], hi[rank] = op.CallPos, op.RetPos
		if stuck >= 0 && !op.Complete {
			hi[rank] = math.MaxInt
		}
		rank++
	})
	if g == nil || g.val == nil {
		return nil, false
	}
	// Walking a candidate in serial order, the constraint is broken exactly
	// when an operation's hi lies below the lo of one placed before it.
next:
	for i, order := range g.val.order {
		maxLo := math.MinInt
		for _, r := range order {
			if hi[r] < maxLo {
				continue next
			}
			if lo[r] > maxLo {
				maxLo = lo[r]
			}
		}
		return g.val.hist[i], true
	}
	return nil, false
}

// WitnessFull reports whether the complete concurrent history h has a serial
// witness in the specification's full set (Definition 1 restricted to
// complete histories): a serial history S with the same thread subhistories
// such that <H ⊆ <S, i.e. a <H b iff ret(a) precedes call(b). (A pending call
// finds no full history: not a full history, caller error.)
func (sp *Spec) WitnessFull(h *History) (*SerialHistory, bool) {
	return sp.WitnessOps(h.Ops(), -1)
}

// WitnessStuck reports whether the reduced stuck history H[e] — h with all
// pending calls except e removed — has a stuck serial witness in the
// specification's stuck set (Definition 2). e must be a pending operation
// of h.
func (sp *Spec) WitnessStuck(h *History, e Op) (*SerialHistory, bool) {
	return sp.WitnessOps(h.Ops(), e.Thread)
}

// Export returns every serial history of the specification in a
// deterministic order: groups in first-seen order, insertion order within
// each group. Feeding the result to ImportSpec rebuilds an equivalent
// specification — same groups in the same order, same candidate order per
// group, same determinism verdict — so a coordinator can ship a synthesized
// phase-1 spec to worker processes and have them produce byte-identical
// reports without re-synthesizing.
func (sp *Spec) Export() []*SerialHistory {
	out := make([]*SerialHistory, 0, sp.nFull+sp.nStuck)
	for _, g := range sp.groups {
		out = append(out, g.hist...)
	}
	return out
}

// ImportSpec rebuilds a specification from Export's output.
func ImportSpec(hs []*SerialHistory) *Spec {
	sp := NewSpec()
	for _, s := range hs {
		sp.Add(s)
	}
	return sp
}
