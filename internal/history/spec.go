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

// serialPrefix is the payload of the order trie, whose paths spell serial
// prefixes: first is the history whose insertion created the node, end the
// stored history that stops exactly here.
type serialPrefix struct {
	first, end *SerialHistory
}

// group holds the stored histories with one thread signature. They are all
// full or all stuck, because a pending call is part of the signature. All of
// them have the same thread subhistories, so an operation is identified by
// its rank in thread-major order: order[i][k] is the rank of the operation at
// serial position k of hist[i] (a pending call comes last).
type group struct {
	sig   string
	stuck bool
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
	ids       map[step]int32
	steps     []step
	root      trie[serialPrefix] // serial order
	sigs      trie[*group]       // thread subhistories, thread-major
	groups    []*group           // first-seen order
	bySig     map[string]*group
	conflict  *NondetWitness
	conflictH [2]*SerialHistory
	nFull     int
	nStuck    int
	path      []int32 // Add's scratch: the step ids of the history being added
}

// NewSpec creates an empty specification.
func NewSpec() *Spec {
	return &Spec{ids: make(map[step]int32), bySig: make(map[string]*group)}
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
			next = n.grow(id, serialPrefix{first: s})
		}
		n = next
	}
	if n.val.end != nil {
		return // duplicate
	}
	n.val.end = s

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
		g.val = &group{sig: sp.signature(path), stuck: s.Stuck()}
		sp.groups = append(sp.groups, g.val)
		sp.bySig[g.val.sig] = g.val
	}
	if s.Stuck() {
		sp.nStuck++
	} else {
		sp.nFull++
	}
	g.val.hist = append(g.val.hist, s)
	g.val.order = append(g.val.order, order)
}

// signature renders the grouping key of Section 4.2 for the history spelled by
// path: the sequence of (operation, result) pairs per thread, with the pending
// operation (if any) marked. It is built once per group; lookups go through
// the signature trie.
func (sp *Spec) signature(path []int32) string {
	var b strings.Builder
	thread := func(i int) int { return sp.steps[path[i]].thread }
	open, cur := false, 0
	threadMajor(len(path), thread, func(i int) {
		st := sp.steps[path[i]]
		if !open || st.thread != cur {
			if open {
				b.WriteByte('}')
			}
			fmt.Fprintf(&b, "T%d{", st.thread)
			open, cur = true, st.thread
		}
		b.WriteString(st.name + "=" + st.outcome() + ";")
	})
	if open {
		b.WriteByte('}')
	}
	return b.String()
}

// checkDeterminism records the first determinism conflict: id is about to
// become a new edge of n, the node of the serial prefix s.Ops[:k]; a sibling
// edge with the same call and a different outcome is the conflict.
func (sp *Spec) checkDeterminism(n *trie[serialPrefix], id int32, s *SerialHistory, k int) {
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
			sp.conflictH = [2]*SerialHistory{e.to.val.first, s}
			return
		}
	}
}

// Nondeterministic reports whether the recorded set of serial histories is
// nondeterministic, together with a witness.
func (sp *Spec) Nondeterministic() (*NondetWitness, bool) {
	return sp.conflict, sp.conflict != nil
}

// ConflictingHistories returns the two serial histories that witnessed
// nondeterminism (nil, nil if the spec is deterministic).
func (sp *Spec) ConflictingHistories() (*SerialHistory, *SerialHistory) {
	return sp.conflictH[0], sp.conflictH[1]
}

// NumFull returns the number of distinct full serial histories (the |A| of
// the paper's phase-1 statistics).
func (sp *Spec) NumFull() int { return sp.nFull }

// NumStuck returns the number of distinct stuck serial histories (|B|).
func (sp *Spec) NumStuck() int { return sp.nStuck }

// Groups returns the group keys in first-seen order.
func (sp *Spec) Groups() []string {
	sigs := make([]string, len(sp.groups))
	for i, g := range sp.groups {
		sigs[i] = g.sig
	}
	return sigs
}

// GroupHistories returns the full and stuck serial histories of a group.
func (sp *Spec) GroupHistories(sig string) (full, stuck []*SerialHistory) {
	g := sp.bySig[sig]
	switch {
	case g == nil:
		return nil, nil
	case g.stuck:
		return nil, g.hist
	}
	return g.hist, nil
}

// smallHistory sizes the stack buffers of a witness search; longer histories
// allocate.
const smallHistory = 16

// witness searches the group named by the thread subhistories of ops for a
// stored history whose serial order respects the constraint "a comes before b
// if hi(a) < lo(b)", with (lo, hi) = bounds(i) for ops[i]. Complete operations
// are looked up with their result, a pending one as the blocked call of a
// stuck history (whose group holds stuck histories only).
func (sp *Spec) witness(ops []Op, bounds func(i int) (lo, hi int)) (*SerialHistory, bool) {
	var idBuf [smallHistory]int32
	var loBuf, hiBuf [smallHistory]int
	ids, lo, hi := idBuf[:0], loBuf[:], hiBuf[:]
	if len(ops) > smallHistory {
		lo, hi = make([]int, len(ops)), make([]int, len(ops))
	}
	for _, op := range ops {
		id, ok := sp.ids[step{thread: op.Thread, name: op.Name, result: op.Result, pending: !op.Complete}]
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	g, rank := &sp.sigs, 0
	threadMajor(len(ops), func(i int) int { return ops[i].Thread }, func(i int) {
		if g != nil {
			g = g.child(ids[i])
		}
		lo[rank], hi[rank] = bounds(i)
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
// such that <H ⊆ <S.
func (sp *Spec) WitnessFull(h *History) (*SerialHistory, bool) {
	ops := h.Ops()
	// a <H b iff ret(a) precedes call(b). (A pending call finds no full
	// history: not a full history, caller error.)
	return sp.witness(ops, func(i int) (int, int) { return ops[i].CallPos, ops[i].RetPos })
}

// WitnessSeqCon reports whether the complete concurrent history h has a
// sequentially consistent witness in the specification's full set: a serial
// history with the same thread subhistories (program order and per-thread
// results), with no real-time constraint at all. Because every candidate in
// a signature group preserves per-thread order by construction, sequential
// consistency relative to the spec reduces to group non-emptiness. It is
// strictly weaker than WitnessFull: any linearizability witness is also a
// sequential-consistency witness.
func (sp *Spec) WitnessSeqCon(h *History) (*SerialHistory, bool) {
	return sp.witness(h.Ops(), func(int) (int, int) { return 0, 0 })
}

// quiescentBlocks assigns each operation of h to a quiescence block: a
// quiescent point is an instant with no operation pending, and the points
// partition the operations into blocks (every operation's call and return
// fall inside one block). Quiescent consistency keeps real-time order only
// across quiescent points: operations of earlier blocks must precede
// operations of later blocks in the witness, operations within one block may
// be reordered freely. The returned slice is indexed like h.Ops().
func quiescentBlocks(h *History, ops []Op) []int {
	// blockAt[p] is the block of an operation whose call event sits at
	// position p: the number of quiescent points strictly before p.
	blockAt := make([]int, len(h.Events)+1)
	pending, block := 0, 0
	for p, e := range h.Events {
		if p > 0 && pending == 0 {
			block++
		}
		blockAt[p] = block
		if e.Kind == Call {
			pending++
		} else {
			pending--
		}
	}
	out := make([]int, len(ops))
	for i, op := range ops {
		out[i] = blockAt[op.CallPos]
	}
	return out
}

// WitnessQuiescent reports whether the complete concurrent history h has a
// quiescently consistent witness in the specification's full set: a serial
// history with the same thread subhistories that orders any two operations
// separated by a quiescent point (an instant with no pending operation) the
// same way h does. The constraint set is a subset of WitnessFull's real-time
// pairs — an operation pair with ret(a) before call(b) but no intervening
// quiescent point is unconstrained — so any linearizability witness is also
// a quiescent-consistency witness, and the criterion is incomparable in
// general but, relative to a phase-1 spec (whose serial histories all
// preserve program order), strictly between linearizability and sequential
// consistency.
func (sp *Spec) WitnessQuiescent(h *History) (*SerialHistory, bool) {
	ops := h.Ops()
	blocks := quiescentBlocks(h, ops)
	// a must precede b iff a's block is earlier than b's.
	return sp.witness(ops, func(i int) (int, int) { return blocks[i], blocks[i] })
}

// WitnessStuck reports whether the reduced stuck history H[e] — h with all
// pending calls except e removed — has a stuck serial witness in the
// specification's stuck set (Definition 2). e must be a pending operation
// of h.
func (sp *Spec) WitnessStuck(h *History, e Op) (*SerialHistory, bool) {
	all := h.Ops()
	ops := all[:0]
	for _, op := range all {
		if op.Complete || op.Thread == e.Thread {
			ops = append(ops, op)
		}
	}
	// Only completed operations constrain the order; the pending call comes
	// last in every candidate.
	return sp.witness(ops, func(i int) (int, int) {
		if !ops[i].Complete {
			return ops[i].CallPos, math.MaxInt
		}
		return ops[i].CallPos, ops[i].RetPos
	})
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
