package monitor

import (
	"errors"
	"fmt"

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
	for _, op := range h.Ops() {
		if op.Complete {
			complete[op.Index] = true
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
		if c := opts.Telemetry; c != nil {
			c.WitnessNodes.Add(int64(out.Stats.Visited))
			c.MonitorMemoHits.Add(int64(out.Stats.MemoHits))
			c.MonitorParts.Add(int64(out.Stats.Parts))
		}
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
// and runs the per-part witness search, in parallel when there are at least
// two parts. It fills out with the combined verdict, witness, and stats.
func checkParts(m *Model, h *history.History, kind checkKind, roots []any, opts Options, out *Outcome) error {
	parts, keys := partition(m, h, opts)
	out.Stats.Parts = len(parts)
	if len(parts) == 1 {
		res := runPart(m, parts[0], kind, roots, opts)
		mergePart(out, res, keys[0])
		return res.err
	}
	results := make([]partResult, len(parts))
	done := make(chan int, len(parts))
	for i := range parts {
		go func(i int) {
			results[i] = runPart(m, parts[i], kind, roots, opts)
			done <- i
		}(i)
	}
	for range parts {
		<-done
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
// can never take down the process or strand its siblings.
func runPart(m *Model, part *history.History, kind checkKind, roots []any, opts Options) (res partResult) {
	defer func() {
		if r := recover(); r != nil {
			res = partResult{err: fmt.Errorf("monitor: model panicked during witness search: %v", r)}
		}
	}()
	s, err := newSearcher(m, part, kind, opts)
	if err != nil {
		return partResult{err: err}
	}
	if roots == nil {
		roots = []any{m.Init()}
	}
	ok, err := s.run(roots)
	res = partResult{ok: ok, stats: Stats{Visited: s.visited, MemoHits: s.memoHits}, err: err}
	if ok && kind != kindStuck {
		res.witness = s.witness()
	}
	return res
}

// searcher is the state of one part's backtracking search: built once per
// (part, kind) and started from every root in turn, all roots sharing the one
// memo (a configuration that failed from one root fails from any).
type searcher struct {
	m    *Model
	opts Options
	kind checkKind

	ops      []history.Op
	pred     []mask // pred[i]: ops that must be linearized before op i
	must     mask   // complete ops (all of them must appear in the witness)
	all      mask   // every op of the part
	pendName string // kindStuck: the operation that must block at the end

	memo     map[string]bool
	visited  int
	memoHits int

	// finals, when non-nil, turns the search into an enumeration
	// (Incremental.ExtendComplete): the final state of every complete
	// linearization is recorded by fingerprint and the search keeps going,
	// so it never reports a witness. A memo key then marks a configuration
	// whose whole subtree has been expanded — its final states are already
	// collected — which is the failure memo's meaning too.
	finals map[string]any

	order   []int    // current linearization, indices into ops
	results []string // result assigned to each order entry
}

func newSearcher(m *Model, part *history.History, kind checkKind, opts Options) (*searcher, error) {
	s := &searcher{m: m, opts: opts, kind: kind, memo: make(map[string]bool)}
	for _, op := range part.Ops() {
		if !op.Complete && kind == kindStuck {
			if s.pendName != "" {
				return nil, errors.New("monitor: reduced history has more than one pending operation")
			}
			s.pendName = op.Name
			continue // the pending op is not searched, only probed at the end
		}
		s.ops = append(s.ops, op)
	}
	n := len(s.ops)
	words := (n + 63) / 64
	s.must = newMask(words)
	s.all = newMask(words)
	s.pred = make([]mask, n)
	for i := range s.ops {
		s.all.set(i)
		if s.ops[i].Complete {
			s.must.set(i)
		}
		s.pred[i] = newMask(words)
		for j := range s.ops {
			if i != j && history.Precedes(s.ops[j], s.ops[i]) {
				s.pred[i].set(j)
			}
		}
	}
	return s, nil
}

// run searches from each root until one yields a witness.
func (s *searcher) run(roots []any) (bool, error) {
	cur := newMask(len(s.all))
	for _, root := range roots {
		if ok, err := s.search(cur, root); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

func (s *searcher) search(cur mask, state any) (bool, error) {
	done := cur.covers(s.must)
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
	var key string
	if !s.opts.NoMemo {
		key = cur.key(s.m.fingerprint(state))
		if s.memo[key] {
			s.memoHits++
			return false, nil
		}
	}
	s.visited++
	if s.visited > s.opts.maxStates() {
		return false, fmt.Errorf("%w (limit %d)", ErrStateLimit, s.opts.maxStates())
	}
	if done {
		// kindStuck with every completed op linearized (must == all, so no
		// candidates remain): the pending op must block in this state.
		_, _, err := s.m.Step(state, s.pendName)
		if errors.Is(err, ErrBlock) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	} else {
		for i := range s.ops {
			if cur.has(i) || !cur.covers(s.pred[i]) {
				continue
			}
			res, next, err := s.m.Step(state, s.ops[i].Name)
			if errors.Is(err, ErrBlock) {
				continue // not enabled in this state
			}
			if err != nil {
				return false, err
			}
			if s.ops[i].Complete && res != s.ops[i].Result {
				continue // the model contradicts the recorded result
			}
			cur.set(i)
			s.order = append(s.order, i)
			s.results = append(s.results, res)
			ok, err := s.search(cur, next)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			s.order = s.order[:len(s.order)-1]
			s.results = s.results[:len(s.results)-1]
			cur.clear(i)
		}
	}
	// Fully explored without a witness: memoize the failure.
	if !s.opts.NoMemo {
		s.memo[key] = true
	}
	return false, nil
}

// witness renders the current linearization (valid right after a successful
// run).
func (s *searcher) witness() []WitnessStep {
	out := make([]WitnessStep, len(s.order))
	for k, i := range s.order {
		out[k] = WitnessStep{Thread: s.ops[i].Thread, Op: s.ops[i].Name, Result: s.results[k]}
	}
	return out
}

// mask is a small bitset over the operations of one history part.
type mask []uint64

func newMask(words int) mask {
	if words == 0 {
		words = 1
	}
	return make(mask, words)
}

func (b mask) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b mask) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b mask) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// covers reports whether every bit of o is set in b.
func (b mask) covers(o mask) bool {
	for w := range o {
		if o[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// key encodes the mask plus a state fingerprint as a memoization key.
func (b mask) key(fp string) string {
	buf := make([]byte, 0, len(b)*8+len(fp))
	for _, w := range b {
		for k := 0; k < 8; k++ {
			buf = append(buf, byte(w>>(8*k)))
		}
	}
	return string(append(buf, fp...))
}
