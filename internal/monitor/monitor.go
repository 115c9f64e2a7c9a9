package monitor

import (
	"errors"
	"fmt"
	"hash/maphash"
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
	// ModeAuto (the zero value) lets the history's stuck marker pick the
	// definition: complete histories get the plain witness search, histories
	// marked stuck get the generalized Definition 3 treatment (every pending
	// operation e must have a stuck serial witness for the reduced history
	// H[e]), and histories that merely end with pending calls (e.g. a
	// truncated recording) get the classic Definition 1 treatment.
	ModeAuto Mode = iota
	// ModeClassic forces the original Definition 1: pending operations may
	// be completed with any result the model admits, or dropped; blocking
	// is invisible.
	ModeClassic
)

// Options configures Check.
type Options struct {
	// Mode selects the linearizability definition (see Mode).
	Mode Mode
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
	// (Definition 3, on a history marked stuck, only).
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
	// kindFinals: as kindComplete, but the search enumerates instead of
	// stopping at a witness (Incremental.ExtendComplete): the final state of
	// every complete linearization is added to the searcher's finals and the
	// search keeps going. A memoized configuration is then one whose whole
	// subtree has been expanded — its final states are already collected —
	// which is the failure memo's meaning too.
	kindFinals
)

// reduce builds the reduced history H[e] of Definition 2: the completed
// operations of h, in their original event order, plus the invocation of the
// pending operation e. The result is marked stuck.
func reduce(h *history.History, e history.Op) *history.History {
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
// at any root, and Definition 3 picks the root per pending operation
// — for every e some H[e] witness from some root — which is what makes
// Incremental.Finish from a frontier equal Check on the whole history.
func check(m *Model, roots []string, h *history.History, opts Options) (*Outcome, error) {
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
	switch {
	case len(pending) == 0:
		return out, checkParts(m, h, kindComplete, roots, opts, out)
	case opts.Mode == ModeClassic || !h.Stuck:
		return out, checkParts(m, h, kindClassic, roots, opts, out)
	default:
		for i := range pending {
			e := pending[i]
			sub := &Outcome{Linearizable: true}
			if err := checkParts(m, reduce(h, e), kindStuck, roots, opts, sub); err != nil {
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
// which take the parts in first-appearance order and hold one pooled searcher
// each: a trace with tens of thousands of keys costs as many searches, not as
// many goroutines and seen-sets at once. It fills out with the combined
// verdict, witness, and stats, merged in part order whichever part finished
// first.
func checkParts(m *Model, h *history.History, kind checkKind, roots []string, opts Options, out *Outcome) error {
	parts, keys := partition(m, h, opts)
	out.Stats.Parts = len(parts)
	results := make([]partResult, len(parts))
	var next atomic.Int64
	work := func() {
		s := getSearcher(m, opts)
		defer searchers.Put(s)
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
	steps := 0
	for _, res := range results {
		steps += len(res.witness)
	}
	out.Witness = slices.Grow(out.Witness, steps)
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
func runPart(s *searcher, part *history.History, kind checkKind, roots []string) (res partResult) {
	defer func() {
		if r := recover(); r != nil {
			res = partResult{err: fmt.Errorf("monitor: model panicked during witness search: %v", r)}
		}
	}()
	if err := s.load(part, kind); err != nil {
		return partResult{err: err}
	}
	if roots == nil {
		roots = []string{s.m.Init()}
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
// seen-set outlive the part: searchers come from one pool, taken for a
// checkParts worker's run of parts or for one Incremental window and put
// back after, so no caller keeps one and none regrows its table from empty.
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
	linHash  uint64        // Zobrist hash of lin: the XOR of its members' zobrist words
	left     int           // complete operations not yet linearized
	pendName string        // kindStuck: the operation that must block at the end

	memo     seenSet
	visited  int
	memoHits int

	finals map[string]struct{} // kindFinals: the final states enumerated so far

	order   []int32  // current linearization, indices into ops
	results []string // result assigned to each order entry
}

// searchOp is what the search needs of one operation.
type searchOp struct {
	thread       int
	name, result string
	zobrist      uint64 // the operation's word in linHash
}

// entry is one node of the searcher's event list.
type entry struct {
	prev, next int32
	op         int32 // call entries: index into ops; -1 for return entries and the head
	ret        int32 // call entries: the matching return entry, 0 for a pending operation
}

// searchers pools the searchers of checkParts workers and Incremental
// windows alike.
var searchers = sync.Pool{New: func() any {
	return &searcher{open: make(map[int]int32), finals: make(map[string]struct{})}
}}

// getSearcher takes a searcher from the pool for a run of model m; load
// then replaces whatever part it searched last.
func getSearcher(m *Model, opts Options) *searcher {
	s := searchers.Get().(*searcher)
	s.m, s.opts = m, opts
	return s
}

// load replaces whatever the searcher held by the entry list of part, built
// in one pass over its events. A kindComplete or kindFinals part must have no
// pending operation; a kindStuck part may have one, which is not searched,
// only probed at the end.
func (s *searcher) load(part *history.History, kind checkKind) error {
	s.kind, s.pendName = kind, ""
	s.visited, s.memoHits, s.left, s.linHash = 0, 0, 0, 0
	s.ops, s.order, s.results = s.ops[:0], s.order[:0], s.results[:0]
	clear(s.open)
	clear(s.finals)
	s.ents = append(s.ents[:0], entry{next: 1, op: -1})
	for _, ev := range part.Events {
		e := int32(len(s.ents))
		if ev.Kind == history.Call {
			s.open[ev.Index] = e
			s.ents = append(s.ents, entry{prev: e - 1, next: e + 1, op: int32(len(s.ops))})
			s.ops = append(s.ops, searchOp{thread: ev.Thread, name: ev.Op, zobrist: zobrist(len(s.ops))})
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
	s.memo.reset(words)
	switch {
	case (kind == kindComplete || kind == kindFinals) && len(s.open) > 0:
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
	s.linHash ^= s.ops[s.ents[c].op].zobrist
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
	s.linHash ^= s.ops[s.ents[c].op].zobrist
}

// run searches from each root until one yields a witness.
func (s *searcher) run(roots []string) (bool, error) {
	for _, root := range roots {
		if ok, err := s.search(root); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

func (s *searcher) search(state string) (bool, error) {
	done := s.left == 0
	if done && s.kind == kindFinals {
		s.finals[state] = struct{}{}
		return false, nil
	}
	if done && (s.kind != kindStuck || s.pendName == "") {
		// Complete/classic witness found — or a stuck-check part that does
		// not contain the pending operation, which only needs its completed
		// ops to linearize.
		return true, nil
	}
	// The hash of (lin, state) is the same at exit: every lift below is
	// undone by then.
	hash := s.linHash ^ maphash.String(stateSeed, state)
	if _, seen := s.memo.find(hash, s.lin, state); seen {
		s.memoHits++
		return false, nil
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
	// Fully explored without a witness: memoize the failure.
	s.memo.add(hash, s.lin, state)
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

// zobrist is operation i's word in the Zobrist hash of a mask: splitmix64's
// i-th output, fixed for a position whatever the part.
func zobrist(i int) uint64 {
	z := uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// stateSeed seeds the hash of a model state in a memo key.
var stateSeed = maphash.MakeSeed()

// memoKeep is the most entries a seen-set carries, emptied, to the next part:
// clearing costs what the table can hold, so the table of one part that blew
// up is dropped instead of taxing every later part (and pinning its memory in
// the pool).
const memoKeep = 1 << 14

// seenSet is the searcher's memo: the (linearized set, state) configurations
// whose subtree has been expanded, in an open-addressed table probed
// linearly and kept at most half full. A key's hash only picks the slot where
// probing starts; a slot holds the key when its stored mask words and state
// equal the key's, so a hash collision costs a probe, never a verdict. A
// stored state is the searcher's own string, so adding a key copies its mask
// words and allocates nothing, and emptying the set clears only the tags.
type seenSet struct {
	tags   []uint64 // slot i holds a key when tags[i], its hash with the low bit set, is not 0
	states []string // slot i's state, read only while the slot holds a key
	masks  []uint64 // slot i's mask is masks[i*words : (i+1)*words]
	words  int
	n      int
	shift  uint // 64 - log2(len(tags)): a hash's top bits pick its first slot
}

// reset empties the set for masks of the given number of words.
func (t *seenSet) reset(words int) {
	switch {
	case len(t.tags) == 0 || len(t.tags) > 2*memoKeep:
		t.tags, t.states, t.shift = make([]uint64, 64), make([]string, 64), 64-6
	case t.n > 0:
		clear(t.tags)
	}
	t.words, t.n = words, 0
	t.masks = slices.Grow(t.masks[:0], len(t.tags)*words)[:len(t.tags)*words]
}

// find returns the slot holding (lin, state), or the empty slot where it
// would go and false.
func (t *seenSet) find(hash uint64, lin []uint64, state string) (int, bool) {
	tag, w := hash|1, t.words
	for i := int(tag >> t.shift); ; i = (i + 1) & (len(t.tags) - 1) {
		switch t.tags[i] {
		case 0:
			return i, false
		case tag:
			if t.states[i] == state && slices.Equal(t.masks[i*w:(i+1)*w], lin) {
				return i, true
			}
		}
	}
}

func (t *seenSet) add(hash uint64, lin []uint64, state string) {
	if 2*(t.n+1) > len(t.tags) {
		old, w := *t, t.words
		t.tags, t.states, t.masks = make([]uint64, 2*len(old.tags)), make([]string, 2*len(old.tags)), make([]uint64, 2*len(old.masks))
		t.n, t.shift = 0, t.shift-1
		for j, tag := range old.tags {
			if tag != 0 {
				t.add(tag, old.masks[j*w:(j+1)*w], old.states[j])
			}
		}
	}
	if i, ok := t.find(hash, lin, state); !ok {
		t.tags[i], t.states[i] = hash|1, state
		copy(t.masks[i*t.words:], lin)
		t.n++
	}
}
