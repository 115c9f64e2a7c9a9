package monitor

import (
	"errors"
	"fmt"
	"sort"

	"lineup/internal/history"
	"lineup/internal/telemetry"
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
// complete — while the retired prefix is forgotten entirely. Both steps are
// Check's own searcher started from the frontier as its set of roots (one
// memo for all of them), not a Check per frontier state: see Finish for why
// the difference is a verdict, not only a cost.
//
// Incremental is not safe for concurrent use; the streaming service gives
// each partition to exactly one worker.
type Incremental struct {
	m    *Model
	opts Options

	s        *searcher // one for every window: its buffers and maps are reused
	frontier []any     // states reachable by linearizing the consumed prefix
	fps      []string  // fingerprints of frontier, aligned and sorted
	consumed int       // completed operations retired so far
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
		fp := inc.m.fingerprint(s)
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

// ExtendComplete consumes one window whose operations are all complete and
// whose right edge is a quiescent cut of the part. It reports whether the
// window linearizes from any frontier state; on true the frontier advances
// to the final states of every complete linearization, on false the part
// (and therefore the whole history) is not linearizable and the checker
// stays failed: the frontier empties and every further window reports false.
// One searcher enumerates from every frontier state, so a configuration
// reached from two of them is expanded once. Model code runs inside, so
// panics are contained as errors.
func (inc *Incremental) ExtendComplete(h *history.History) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("monitor: model panicked during witness search: %v", r)
		}
	}()
	if inc.s == nil {
		inc.s = newSearcher(inc.m, inc.opts)
		inc.s.finals = make(map[string]any)
	}
	s := inc.s
	if err := s.load(h, kindComplete); err != nil {
		return false, err
	}
	defer func() {
		inc.stats.Visited += s.visited
		inc.stats.MemoHits += s.memoHits
		inc.opts.Telemetry.Add(telemetry.WitnessNodes, int64(s.visited))
		inc.opts.Telemetry.Add(telemetry.MonitorMemoHits, int64(s.memoHits))
	}()
	if _, err := s.run(inc.frontier); err != nil {
		return false, err
	}
	if inc.stats.Parts == 0 {
		inc.stats.Parts = 1
	}
	next := make([]any, 0, len(s.finals))
	for _, st := range s.finals {
		next = append(next, st)
	}
	inc.SetFrontier(next)
	if len(inc.frontier) == 0 {
		inc.s = nil // the failure is final: nothing is left to search from
		return false, nil
	}
	inc.consumed += len(s.ops)
	return true, nil
}

// Finish judges the residual window — the events after the last quiescent
// cut, which may include pending operations and the stuck marker — from the
// current frontier, completing the incremental check. It is Check's own body
// rooted at the frontier, so the verdict equals a batch Check of the whole
// part by construction: in particular each pending operation of a stuck
// residual may find its witness from a different frontier state, which a
// per-state Check (some state good for all of them) would wrongly reject.
// Finish does not consume the window, so it may be called repeatedly as a
// read-only probe (e.g. for a live verdict endpoint) and the part can still
// be extended afterwards.
func (inc *Incremental) Finish(h *history.History) (*Outcome, error) {
	if len(inc.frontier) == 0 {
		return &Outcome{Linearizable: false, Stats: inc.stats}, nil
	}
	opts := inc.opts
	opts.NoPartition = true // the stream is already split; a re-split part would restart every key from the same roots
	out, err := check(inc.m, inc.frontier, h, opts)
	if err != nil {
		return nil, err
	}
	inc.stats.Visited += out.Stats.Visited
	inc.stats.MemoHits += out.Stats.MemoHits
	out.Stats = inc.stats
	return out, nil
}
