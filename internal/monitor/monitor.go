package monitor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lineup/internal/history"
	"lineup/internal/telemetry"
)

// Mode selects how pending operations of the history are judged.
type Mode int

const (
	// ModeAuto (the zero value) picks the definition from the history
	// itself: complete histories get the plain witness search, histories
	// marked stuck get the generalized Definition 3 treatment, and
	// histories that merely end with pending calls (e.g. a truncated
	// recording) get the classic Definition 1 treatment.
	ModeAuto Mode = iota
	// ModeClassic forces the original Definition 1: pending operations may
	// be completed with any result the model admits, or dropped; blocking
	// is invisible.
	ModeClassic
	// ModeGeneralized forces the blocking-aware Definitions 2/3: every
	// pending operation e must have a stuck serial witness for the reduced
	// history H[e].
	ModeGeneralized
)

// Options configures Check.
type Options struct {
	// Mode selects the linearizability definition (see Mode).
	Mode Mode
	// NoMemo disables the memoized seen-set, reverting to plain Wing–Gong
	// backtracking (exposed for the monitor-vs-enumeration benchmarks).
	NoMemo bool
	// NoPartition disables P-compositional history splitting.
	NoPartition bool
	// MaxStates bounds the search nodes expanded per history part (a safety
	// net against adversarial histories; 0 selects a 4,000,000 default).
	MaxStates int
	// Telemetry, when non-nil, accumulates the check's search measurements
	// (expanded nodes, memo hits, parts) across calls. Outcome.Stats remains
	// the per-call source of truth; the collector only aggregates.
	Telemetry *telemetry.Collector
}

func (o Options) maxStates() int {
	if o.MaxStates == 0 {
		return 4_000_000
	}
	return o.MaxStates
}

// ErrStateLimit is returned when the witness search exceeds
// Options.MaxStates before reaching a verdict.
var ErrStateLimit = errors.New("monitor: witness search exceeded the state budget")

// WitnessStep is one operation of a found linearization, in witness order.
type WitnessStep struct {
	Thread int
	Op     string
	Result string
}

func (s WitnessStep) String() string {
	return fmt.Sprintf("T%d:%s=%s", s.Thread, s.Op, s.Result)
}

// Stats are search measurements, aggregated over all history parts.
type Stats struct {
	// Parts is the number of P-compositional parts the history split into
	// (1 when partitioning did not apply).
	Parts int
	// Visited counts expanded search nodes.
	Visited int
	// MemoHits counts nodes pruned by the seen-set.
	MemoHits int
}

// Outcome is the verdict of a monitor check.
type Outcome struct {
	// Linearizable reports witness existence under the selected mode.
	Linearizable bool
	// Witness is a linearization order proving linearizability, filled for
	// complete and classic checks. When the history was partitioned the
	// steps are grouped per part (a valid global witness exists by
	// P-compositionality but is not materialized). Generalized stuck checks
	// leave it nil.
	Witness []WitnessStep
	// FailedPending is the pending operation with no stuck serial witness
	// (generalized mode only).
	FailedPending *history.Op
	// FailedPart is the partition key of the part that had no witness (""
	// when the history was not partitioned).
	FailedPart string
	// Stats are the aggregated search measurements.
	Stats Stats
}

// checkKind is the per-part search variant.
type checkKind int

const (
	// kindComplete: all operations are complete and every recorded result
	// must be reproduced.
	kindComplete checkKind = iota
	// kindClassic: pending operations are optional and take whatever result
	// the model yields.
	kindClassic
	// kindStuck: all complete operations must linearize, after which the
	// part's pending operation must block.
	kindStuck
)

// Reduce builds the reduced history H[e] of Definition 2: the completed
// operations of h, in their original event order, plus the invocation of the
// pending operation e. The result is marked stuck.
func Reduce(h *history.History, e history.Op) *history.History {
	out := &history.History{Stuck: true}
	complete := make(map[int]bool)
	for _, ev := range h.Events {
		if ev.Kind == history.Return {
			complete[ev.Index] = true
		}
	}
	for _, ev := range h.Events {
		if complete[ev.Index] || (ev.Index == e.Index && ev.Kind == history.Call) {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// Check decides witness existence for one recorded history against the
// model. It returns an error only for malformed inputs, unknown operations,
// or an exceeded state budget — never for a mere violation, which is
// reported through Outcome.Linearizable.
func Check(m *Model, h *history.History, opts Options) (*Outcome, error) {
	if m == nil || m.Init == nil || m.Step == nil {
		return nil, errors.New("monitor: model must define Init and Step")
	}
	return check(m, nil, h, opts)
}

// check is Check started from a set of root states instead of the initial
// one (nil roots: every part starts at its own m.Init()). A witness may begin
// at any root, and the generalized mode picks the root per pending operation
// — for every e some H[e] witness from some root — which is what makes
// Incremental.Finish from a frontier equal Check on the whole history.
func check(m *Model, roots []any, h *history.History, opts Options) (*Outcome, error) {
	if !h.WellFormed() {
		return nil, errors.New("monitor: history is not well-formed (a thread overlaps its own operations)")
	}
	out := &Outcome{Linearizable: true}
	defer func() {
		// Aggregate whatever the search measured, even on an error return.
		opts.Telemetry.Add(telemetry.WitnessNodes, int64(out.Stats.Visited))
		opts.Telemetry.Add(telemetry.MonitorMemoHits, int64(out.Stats.MemoHits))
		opts.Telemetry.Add(telemetry.MonitorParts, int64(out.Stats.Parts))
	}()
	pending := h.Pending()
	mode := opts.Mode
	if mode == ModeAuto {
		if h.Stuck {
			mode = ModeGeneralized
		} else {
			mode = ModeClassic
		}
	}
	switch {
	case len(pending) == 0:
		return out, checkParts(m, h, kindComplete, roots, opts, out)
	case mode == ModeClassic:
		return out, checkParts(m, h, kindClassic, roots, opts, out)
	default:
		for i := range pending {
			e := pending[i]
			sub := &Outcome{Linearizable: true}
			if err := checkParts(m, Reduce(h, e), kindStuck, roots, opts, sub); err != nil {
				return nil, err
			}
			out.Stats.Visited += sub.Stats.Visited
			out.Stats.MemoHits += sub.Stats.MemoHits
			if sub.Stats.Parts > out.Stats.Parts {
				out.Stats.Parts = sub.Stats.Parts
			}
			if !sub.Linearizable {
				out.Linearizable = false
				out.FailedPending = &e
				out.FailedPart = sub.FailedPart
				return out, nil
			}
		}
		return out, nil
	}
}

// checkParts splits the history P-compositionally (when the model allows)
// and runs the per-part witness search on at most GOMAXPROCS goroutines,
// which take the parts in first-appearance order and keep one searcher each:
// a trace with tens of thousands of keys costs as many searches, not as many
// goroutines and memo maps at once. It fills out with the combined verdict,
// witness, and stats, merged in part order whichever part finished first.
func checkParts(m *Model, h *history.History, kind checkKind, roots []any, opts Options, out *Outcome) error {
	parts, keys := partition(m, h, opts)
	out.Stats.Parts = len(parts)
	results := make([]partResult, len(parts))
	var next atomic.Int64
	work := func() {
		s := newSearcher(m, opts)
		for i := int(next.Add(1)) - 1; i < len(parts); i = int(next.Add(1)) - 1 {
			results[i] = runPart(s, parts[i], kind, roots)
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(parts)); workers == 1 {
		work() // on the caller's goroutine, whose stack the last search already grew
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	var firstErr error
	for i, res := range results {
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		mergePart(out, res, keys[i])
	}
	return firstErr
}

// partResult is the outcome of one part's search.
type partResult struct {
	ok      bool
	witness []WitnessStep
	stats   Stats
	err     error
}

func mergePart(out *Outcome, res partResult, key string) {
	out.Stats.Visited += res.stats.Visited
	out.Stats.MemoHits += res.stats.MemoHits
	if res.err != nil {
		return
	}
	if !res.ok && out.Linearizable {
		out.Linearizable = false
		out.FailedPart = key
		out.Witness = nil
	}
	if out.Linearizable {
		out.Witness = append(out.Witness, res.witness...)
	}
}

// runPart runs the Wing–Gong search on one history part. The model's Init,
// Step, and Partition hooks are user code; a panic in them is contained as a
// part error so a multi-part check (whose parts run in their own goroutines)
// can never take down the process or strand its siblings — nor the searcher,
// which load rebuilds from the next part whatever state the panic left.
func runPart(s *searcher, part *history.History, kind checkKind, roots []any) (res partResult) {
	defer func() {
		if r := recover(); r != nil {
			res = partResult{err: fmt.Errorf("monitor: model panicked during witness search: %v", r)}
		}
	}()
	if err := s.load(part, kind); err != nil {
		return partResult{err: err}
	}
	if roots == nil {
		roots = []any{s.m.Init()}
	}
	ok, err := s.run(roots)
	res = partResult{ok: ok, stats: Stats{Visited: s.visited, MemoHits: s.memoHits}, err: err}
	if ok && kind != kindStuck {
		res.witness = s.witness()
	}
	return res
}

// searcher is the state of one backtracking search: loaded with a (part,
// kind) and started from every root in turn, all roots sharing the one memo (a
// configuration that failed from one root fails from any). Its buffers and
// maps outlive the part, so whoever runs many searches — a checkParts worker,
// an Incremental — loads one searcher again and again.
//
// The part is held as Horn & Kroening's entry list (arXiv:1504.00204, Alg. 1):
// one call entry per operation and one return entry per complete operation,
// doubly linked in event order. An operation may be linearized next exactly
// when no unlinearized operation returned before it was called, that is, when
// its call entry stands in front of the first return entry still in the list;
// linearizing it lifts its two entries out and backtracking splices them back
// (ents keeps a lifted entry's own links, as in dancing links). A search node
// therefore looks at as many entries as the history has concurrent operations
// at that point, not at all of them, and tries them in call order.
type searcher struct {
	m    *Model
	opts Options
	kind checkKind

	ops      []searchOp
	ents     []entry       // ents[0] is the list head
	open     map[int]int32 // while loading: operation identifier -> call entry; afterwards the pending calls
	lin      mask          // operations linearized so far
	left     int           // complete operations not yet linearized
	pendName string        // kindStuck: the operation that must block at the end

	memo     map[string]bool
	key      []byte // the memo key under construction, see memoKey
	visited  int
	memoHits int

	// finals, when non-nil, turns the search into an enumeration
	// (Incremental.ExtendComplete): the final state of every complete
	// linearization is recorded by fingerprint and the search keeps going,
	// so it never reports a witness. A memo key then marks a configuration
	// whose whole subtree has been expanded — its final states are already
	// collected — which is the failure memo's meaning too.
	finals map[string]any

	order   []int32  // current linearization, indices into ops
	results []string // result assigned to each order entry
}

// searchOp is what the search needs of one operation.
type searchOp struct {
	thread       int
	name, result string
}

// entry is one node of the searcher's event list.
type entry struct {
	prev, next int32
	op         int32 // call entries: index into ops; -1 for return entries and the head
	ret        int32 // call entries: the matching return entry, 0 for a pending operation
}

// memoKeep is the largest memo a searcher carries, emptied, to its next part:
// clearing costs what the map can hold, so the map of one part that blew up
// is dropped instead of taxing every later part (and pinning its memory in a
// long-lived Incremental).
const memoKeep = 1 << 14

func newSearcher(m *Model, opts Options) *searcher {
	return &searcher{m: m, opts: opts, memo: make(map[string]bool), open: make(map[int]int32)}
}

// load replaces whatever the searcher held by the entry list of part, built
// in one pass over its events. A kindComplete part must have no pending
// operation; a kindStuck part may have one, which is not searched, only
// probed at the end.
func (s *searcher) load(part *history.History, kind checkKind) error {
	s.kind, s.pendName = kind, ""
	s.visited, s.memoHits, s.left = 0, 0, 0
	s.ops, s.order, s.results = s.ops[:0], s.order[:0], s.results[:0]
	clear(s.open)
	clear(s.finals)
	if len(s.memo) > memoKeep {
		s.memo = make(map[string]bool)
	} else {
		clear(s.memo)
	}
	s.ents = append(s.ents[:0], entry{next: 1, op: -1})
	for _, ev := range part.Events {
		e := int32(len(s.ents))
		if ev.Kind == history.Call {
			s.open[ev.Index] = e
			s.ents = append(s.ents, entry{prev: e - 1, next: e + 1, op: int32(len(s.ops))})
			s.ops = append(s.ops, searchOp{thread: ev.Thread, name: ev.Op})
			continue
		}
		c, ok := s.open[ev.Index]
		if !ok {
			return errors.New("monitor: history has a return without a matching call")
		}
		delete(s.open, ev.Index)
		s.ents[c].ret = e
		s.ops[s.ents[c].op].result = ev.Result
		s.ents = append(s.ents, entry{prev: e - 1, next: e + 1, op: -1})
		s.left++
	}
	last := int32(len(s.ents) - 1)
	s.ents[0].prev, s.ents[last].next = last, 0
	words := (len(s.ops) + 63) / 64
	s.lin = slices.Grow(s.lin[:0], words)[:words]
	clear(s.lin)
	switch {
	case kind == kindComplete && len(s.open) > 0:
		return ErrWindowNotQuiescent
	case kind == kindStuck && len(s.open) > 1:
		return errors.New("monitor: reduced history has more than one pending operation")
	case kind == kindStuck:
		for _, c := range s.open {
			s.pendName = s.ops[s.ents[c].op].name
			s.unlink(c)
		}
	}
	return nil
}

func (s *searcher) unlink(e int32) {
	s.ents[s.ents[e].prev].next = s.ents[e].next
	s.ents[s.ents[e].next].prev = s.ents[e].prev
}

func (s *searcher) relink(e int32) {
	s.ents[s.ents[e].prev].next = e
	s.ents[s.ents[e].next].prev = e
}

// lift linearizes the operation of call entry c; unlift undoes the most
// recent lift that has not been undone.
func (s *searcher) lift(c int32) {
	s.lin.set(int(s.ents[c].op))
	s.unlink(c)
	if r := s.ents[c].ret; r != 0 {
		s.unlink(r)
		s.left--
	}
}

func (s *searcher) unlift(c int32) {
	if r := s.ents[c].ret; r != 0 {
		s.relink(r)
		s.left++
	}
	s.relink(c)
	s.lin.clear(int(s.ents[c].op))
}

// memoKey renders the current configuration — the linearized set, then the
// state fingerprint — into the searcher's one key buffer. The memo compares
// whole keys, never a hash of them: a collision would be a wrong verdict.
func (s *searcher) memoKey(fp string) []byte {
	key := s.key[:0]
	for _, w := range s.lin {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	s.key = append(key, fp...)
	return s.key
}

// run searches from each root until one yields a witness.
func (s *searcher) run(roots []any) (bool, error) {
	for _, root := range roots {
		if ok, err := s.search(root); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

func (s *searcher) search(state any) (bool, error) {
	done := s.left == 0
	if done && s.finals != nil {
		fp := s.m.fingerprint(state)
		if _, ok := s.finals[fp]; !ok {
			s.finals[fp] = state
		}
		return false, nil
	}
	if done && (s.kind != kindStuck || s.pendName == "") {
		// Complete/classic witness found — or a stuck-check part that does
		// not contain the pending operation, which only needs its completed
		// ops to linearize.
		return true, nil
	}
	var fp string
	if !s.opts.NoMemo {
		fp = s.m.fingerprint(state)
		if s.memo[string(s.memoKey(fp))] { // a lookup by converted bytes does not allocate
			s.memoHits++
			return false, nil
		}
	}
	s.visited++
	if s.visited > s.opts.maxStates() {
		return false, fmt.Errorf("%w (limit %d)", ErrStateLimit, s.opts.maxStates())
	}
	if done {
		// kindStuck with every completed op linearized (the pending op is
		// not in the list, so no candidates remain): it must block here.
		_, _, err := s.m.Step(state, s.pendName)
		if errors.Is(err, ErrBlock) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	} else {
		for c := s.ents[0].next; s.ents[c].op >= 0; c = s.ents[c].next {
			i := s.ents[c].op
			res, next, err := s.m.Step(state, s.ops[i].name)
			if errors.Is(err, ErrBlock) {
				continue // not enabled in this state
			}
			if err != nil {
				return false, err
			}
			if s.ents[c].ret != 0 && res != s.ops[i].result {
				continue // the model contradicts the recorded result
			}
			s.lift(c)
			s.order = append(s.order, i)
			s.results = append(s.results, res)
			ok, err := s.search(next)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			s.order = s.order[:len(s.order)-1]
			s.results = s.results[:len(s.results)-1]
			s.unlift(c)
		}
	}
	// Fully explored without a witness: memoize the failure. The key buffer
	// was reused below this node, so the key is rendered again, and storing
	// it is the search's one allocation of its own.
	if !s.opts.NoMemo {
		s.memo[string(s.memoKey(fp))] = true
	}
	return false, nil
}

// witness renders the current linearization (valid right after a successful
// run).
func (s *searcher) witness() []WitnessStep {
	out := make([]WitnessStep, len(s.order))
	for k, i := range s.order {
		out[k] = WitnessStep{Thread: s.ops[i].thread, Op: s.ops[i].name, Result: s.results[k]}
	}
	return out
}

// mask is a bitset over the operations of one history part.
type mask []uint64

func (b mask) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b mask) clear(i int) { b[i/64] &^= 1 << (i % 64) }
