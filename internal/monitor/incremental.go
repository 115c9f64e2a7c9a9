package monitor

import (
	"errors"
	"fmt"
	"sort"

	"lineup/internal/history"
)

// Incremental is the windowed face of the witness search: it judges one
// P-compositional part of a history a window at a time, in bounded memory,
// instead of holding the whole history for a single batch Check.
//
// The soundness argument is the quiescent-cut decomposition. A caller may
// only close a window at a quiescent point of the part — a moment with no
// open operations — so every operation of the window precedes (in the <H
// real-time order) every operation that arrives later. Any witness of the
// full history is then a linearization of the window followed by a
// linearization of the rest, and conversely. Because a window can have many
// witnesses ending in behaviorally different model states, Incremental
// carries a *frontier*: the set of all model states reachable by linearizing
// everything consumed so far (deduplicated by fingerprint). A window is
// accepted if it linearizes from at least one frontier state; the new
// frontier is the union of the final states of all its linearizations from
// all old frontier states. This makes the incremental verdict equal to the
// batch Check verdict on the concatenated history — not merely sound but
// complete — while the retired prefix is forgotten entirely.
//
// Incremental is not safe for concurrent use; the streaming service gives
// each partition to exactly one worker.
type Incremental struct {
	m    *Model
	opts Options

	frontier []any    // states reachable by linearizing the consumed prefix
	fps      []string // fingerprints of frontier, aligned and sorted
	consumed int      // completed operations retired so far
	stats    Stats
}

// ErrWindowNotQuiescent is returned by ExtendComplete for a window that
// still contains pending operations: the cut would not be quiescent and the
// decomposition unsound.
var ErrWindowNotQuiescent = errors.New("monitor: window contains pending operations (cut is not quiescent)")

// NewIncremental creates an incremental checker whose frontier is the
// model's initial state. Options.Mode applies to Finish; partitioning does
// not apply (the caller splits the history before windowing). Init and
// Fingerprint are model code, so their panics are contained as errors.
func NewIncremental(m *Model, opts Options) (inc *Incremental, err error) {
	if m == nil || m.Init == nil || m.Step == nil {
		return nil, errors.New("monitor: model must define Init and Step")
	}
	defer func() {
		if r := recover(); r != nil {
			inc, err = nil, fmt.Errorf("monitor: model panicked during Init: %v", r)
		}
	}()
	inc = &Incremental{m: m, opts: opts}
	inc.SetFrontier([]any{m.Init()})
	return inc, nil
}

// FrontierSize returns the number of distinct model states in the frontier.
func (inc *Incremental) FrontierSize() int { return len(inc.frontier) }

// FrontierStates returns the frontier states, ordered by fingerprint.
func (inc *Incremental) FrontierStates() []any {
	return append([]any(nil), inc.frontier...)
}

// FrontierFingerprints returns the sorted state fingerprints of the
// frontier, the canonical summary used by checkpointing and the window
// dedup cache.
func (inc *Incremental) FrontierFingerprints() []string {
	return append([]string(nil), inc.fps...)
}

// SetFrontier replaces the frontier (checkpoint restore, or dedup-cache
// reuse of a previously computed transition). States with equal fingerprints
// are collapsed; the frontier is re-sorted canonically.
func (inc *Incremental) SetFrontier(states []any) {
	seen := make(map[string]any, len(states))
	for _, s := range states {
		fp := inc.fingerprint(s)
		if _, ok := seen[fp]; !ok {
			seen[fp] = s
		}
	}
	inc.frontier = inc.frontier[:0]
	inc.fps = inc.fps[:0]
	for fp := range seen {
		inc.fps = append(inc.fps, fp)
	}
	sort.Strings(inc.fps)
	for _, fp := range inc.fps {
		inc.frontier = append(inc.frontier, seen[fp])
	}
}

// Consumed returns the number of completed operations retired so far.
func (inc *Incremental) Consumed() int { return inc.consumed }

// Stats returns the accumulated search measurements.
func (inc *Incremental) Stats() Stats { return inc.stats }

func (inc *Incremental) fingerprint(state any) string {
	if inc.m.Fingerprint != nil {
		return inc.m.Fingerprint(state)
	}
	return fmt.Sprintf("%#v", state)
}

// ExtendComplete consumes one window whose operations are all complete and
// whose right edge is a quiescent cut of the part. It reports whether the
// window linearizes from any frontier state; on true the frontier advances
// to the final states of every complete linearization, on false the part
// (and therefore the whole history) is not linearizable and the checker
// stays failed: the frontier empties and every further window reports false.
// Model code runs inside, so panics are contained as errors.
func (inc *Incremental) ExtendComplete(h *history.History) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("monitor: model panicked during witness search: %v", r)
		}
	}()
	for _, op := range h.Ops() {
		if !op.Complete {
			return false, ErrWindowNotQuiescent
		}
	}
	finals := make(map[string]any)
	visited, memoHits := 0, 0
	defer func() {
		inc.stats.Visited += visited
		inc.stats.MemoHits += memoHits
		if c := inc.opts.Telemetry; c != nil {
			c.WitnessNodes.Add(int64(visited))
			c.MonitorMemoHits.Add(int64(memoHits))
		}
	}()
	for _, state := range inc.frontier {
		s, serr := newSearcher(inc.m, h, kindComplete, inc.opts)
		if serr != nil {
			return false, serr
		}
		if serr := s.searchAll(newMask(len(s.all)), state, finals); serr != nil {
			return false, serr
		}
		visited += s.visited
		memoHits += s.memoHits
	}
	if inc.stats.Parts == 0 {
		inc.stats.Parts = 1
	}
	next := make([]any, 0, len(finals))
	for _, st := range finals {
		next = append(next, st)
	}
	inc.SetFrontier(next)
	if len(inc.frontier) == 0 {
		return false, nil
	}
	inc.consumed += len(h.Ops())
	return true, nil
}

// Finish judges the residual window — the events after the last quiescent
// cut, which may include pending operations and the stuck marker — from the
// current frontier, completing the incremental check. The verdict equals a
// batch Check of the whole part. Finish does not consume the window, so it
// may be called repeatedly as a read-only probe (e.g. for a live verdict
// endpoint) and the part can still be extended afterwards.
func (inc *Incremental) Finish(h *history.History) (*Outcome, error) {
	if len(inc.frontier) == 0 {
		return &Outcome{Linearizable: false, Stats: inc.stats}, nil
	}
	if len(h.Events) == 0 && !h.Stuck {
		return &Outcome{Linearizable: true, Stats: inc.stats}, nil
	}
	opts := inc.opts
	opts.NoPartition = true // the stream is already split; parts re-split here would restart from Init
	var last *Outcome
	for _, state := range inc.frontier {
		state := state
		m := *inc.m
		m.Init = func() any { return state }
		out, err := Check(&m, h, opts)
		if err != nil {
			return nil, err
		}
		inc.stats.Visited += out.Stats.Visited
		inc.stats.MemoHits += out.Stats.MemoHits
		out.Stats = inc.stats
		if out.Linearizable {
			return out, nil
		}
		last = out
	}
	return last, nil
}

// searchAll enumerates every complete linearization reachable from (cur,
// state), collecting the final model states into finals keyed by
// fingerprint. The memo set is reused with enumerate semantics: a key marks
// a configuration whose whole subtree has been expanded, so its reachable
// final states are already collected — revisits are pruned without losing
// completeness. Only kindComplete searchers may use it (every op is in
// must).
func (s *searcher) searchAll(cur mask, state any, finals map[string]any) error {
	if cur.covers(s.must) {
		fp := s.fingerprint(state)
		if _, ok := finals[fp]; !ok {
			finals[fp] = state
		}
		return nil
	}
	var key string
	if !s.opts.NoMemo {
		key = cur.key(s.fingerprint(state))
		if s.memo[key] {
			s.memoHits++
			return nil
		}
	}
	s.visited++
	if s.visited > s.opts.maxStates() {
		return fmt.Errorf("%w (limit %d)", ErrStateLimit, s.opts.maxStates())
	}
	for i := range s.ops {
		if cur.has(i) || !cur.covers(s.pred[i]) {
			continue
		}
		res, next, err := s.m.Step(state, s.ops[i].Name)
		if errors.Is(err, ErrBlock) {
			continue
		}
		if err != nil {
			return err
		}
		if res != s.ops[i].Result {
			continue
		}
		cur.set(i)
		if err := s.searchAll(cur, next, finals); err != nil {
			return err
		}
		cur.clear(i)
	}
	if !s.opts.NoMemo {
		s.memo[key] = true
	}
	return nil
}
