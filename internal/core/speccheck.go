package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lineup/internal/history"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// flushCacheTelemetry publishes a finished phase's history-cache counters.
// The flush happens once per phase — not per lookup — so cache totals stay a
// deterministic function of the explored schedule space.
func flushCacheTelemetry(c *telemetry.Collector, cache *histCache) {
	c.Add(telemetry.HistCacheHits, int64(cache.hits))
	c.Add(telemetry.HistCacheEntries, int64(len(cache.m)))
}

// BudgetError reports that a phase stopped at Options.MaxExecutionsPerPhase
// before its schedule space was exhausted. It wraps sched.ErrBudget.
type BudgetError struct {
	Phase      int // 1 (serial enumeration) or 2 (concurrent exploration)
	Executions int
	Limit      int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: phase %d ran out of budget after %d executions (MaxExecutionsPerPhase %d): %v",
		e.Phase, e.Executions, e.Limit, sched.ErrBudget)
}

func (e *BudgetError) Unwrap() error { return sched.ErrBudget }

// SynthesizeSpec runs phase 1 alone: it enumerates the serial executions of
// the test and returns the synthesized specification, together with the
// phase statistics. The specification can be persisted with
// obsfile.Write and later reloaded for regression checking (the
// observation-file workflow of Section 4.2).
func SynthesizeSpec(sub *Subject, m *Test, opts Options) (*history.Spec, PhaseStats, error) {
	spec := history.NewSpec()
	var err error
	start := time.Now()
	endSpan := opts.Telemetry.StartSpan("phase1")
	defer endSpan()
	relaxed := opts.relaxedSet()
	// Phase 1 arms the containment config (watchdog, leak detection) but
	// stays strict: serial executions run deterministic subject code, so a
	// failure here is not schedule-dependent and aborts the check. Serial
	// exploration visits every serial history exactly once (decisions are
	// taken only between operations), so each outcome goes straight into the
	// spec, which deduplicates on its own.
	stats, exploreErr := ForEachSerialExecution(sub, m, opts, false, func(out *sched.Outcome) bool {
		var h *history.History
		if h, err = materialize(out, relaxed); err != nil {
			return false
		}
		spec.Add(history.ToSerial(h))
		return true
	})
	ps := PhaseStats{
		Executions: stats.Executions,
		Decisions:  stats.Decisions,
		Histories:  spec.NumFull(),
		Stuck:      spec.NumStuck(),
		Duration:   time.Since(start),
	}
	if err != nil {
		return nil, ps, err
	}
	// Executions whose history the spec already held: zero by the
	// one-execution-per-serial-history invariant.
	ps.DedupHits = ps.Executions - ps.Histories - ps.Stuck
	if errors.Is(exploreErr, sched.ErrBudget) {
		return nil, ps, &BudgetError{Phase: 1, Executions: stats.Executions, Limit: opts.maxExecs()}
	}
	if exploreErr != nil {
		return nil, ps, exploreErr
	}
	return spec, ps, nil
}

// witnessMode selects the linearizability definition used by phase 2.
type witnessMode int

const (
	// modeGeneralized is the paper's Definition 3: stuck histories need
	// stuck serial witnesses.
	modeGeneralized witnessMode = iota
	// modeClassic is the original Definition 1: pending operations may be
	// completed or dropped, blocking is invisible.
	modeClassic
)

// phase2Decider is the per-history decision procedure of phase 2:
// deduplication happens on the history's key (histCache) without
// materializing a history; only the first occurrence of a key pays for
// history construction and witness search.
type phase2Decider struct {
	backend witnessBackend
	mode    witnessMode
	m       *Test
	relaxed map[string]bool
	tel     *telemetry.Collector
	// consistency selects the full-history criterion; the relaxed criteria
	// (sequential, quiescent) search the phase-1 spec directly, so spec is
	// non-nil whenever consistency is not Linearizability (Options.validate).
	// Stuck histories always go through the strict backend.
	consistency Consistency
	spec        *history.Spec
}

// decider assembles the decision procedure the (validated) options select.
func (o Options) decider(spec *history.Spec, m *Test, mode witnessMode) *phase2Decider {
	return &phase2Decider{
		backend: o.witnessBackend(spec), mode: mode, m: m, relaxed: o.relaxedSet(), tel: o.Telemetry,
		consistency: o.Consistency, spec: spec,
	}
}

// witness decides witness existence for one not-yet-seen history, returning
// the violation it proves (nil if the history is covered) or a backend error.
func (d *phase2Decider) witness(h *history.History) (*Violation, error) {
	// One query per distinct history; backend-level node counts are
	// reported by the monitor itself.
	d.tel.Add(telemetry.WitnessQueries, 1)
	if !h.Stuck {
		var ok bool
		var err error
		switch d.consistency {
		case SequentialConsistency:
			_, ok = d.spec.WitnessSeqCon(h)
		case QuiescentConsistency:
			_, ok = d.spec.WitnessQuiescent(h)
		default:
			ok, err = d.backend.witnessFull(h)
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Violation{Kind: NoWitness, Test: d.m, History: h}, nil
		}
		return nil, nil
	}
	if d.mode == modeClassic {
		ok, err := d.backend.witnessClassic(h)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Violation{Kind: NoWitness, Test: d.m, History: h}, nil
		}
		return nil, nil
	}
	for _, e := range h.Pending() {
		e := e
		ok, err := d.backend.witnessStuck(h, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Violation{Kind: StuckNoWitness, Test: d.m, History: h, Pending: &e}, nil
		}
	}
	return nil, nil
}

// phase2Acc accumulates the phase-2 state of every exploration path: the
// exhaustive explorer at any worker count, schedule sampling (position =
// arrival index), one work unit (CheckUnit), and the merge of unit reports.
// Deduplication is shared across workers: the first visitor of a key decides
// it (all others wait for that decision), and every occurrence of a key,
// every decision error and every contained failure records its position, so
// the minimal position of each — exactly the point where a sequential
// exploration first meets it — is known at the end. resolve then replays the
// sequential precedence over those positions, and stats counts what lies at
// or before the stop, which makes the verdict, the reported violation and the
// statistics identical on every path.
type phase2Acc struct {
	d        *phase2Decider
	exhaust  bool
	failures *failureCollector
	mu       sync.Mutex
	cache    *histCache
	entries  []*histEntry
	errs     []posError
	// pairs is the minimal position at which each footprint pair was
	// observed (filled only while Options.Coverage collects them).
	pairs map[uint64]sched.Pos
}

type posError struct {
	pos sched.Pos
	err error
}

func newPhase2Acc(d *phase2Decider, exhaust bool, maxFailures int) *phase2Acc {
	return &phase2Acc{d: d, exhaust: exhaust, failures: newFailureCollector(maxFailures), cache: newHistCache(), pairs: make(map[uint64]sched.Pos)}
}

// visit is the one per-execution step of phase 2. p may alias the explorer's
// buffer; everything retained is copied.
func (s *phase2Acc) visit(out *sched.Outcome, p sched.Pos) bool {
	if out.FailureKind() != sched.FailNone {
		// Only reachable when the explorer contains failures (the explorer
		// aborts before visiting otherwise): classify and record with the
		// sequential position. Once the budget is exceeded at this position,
		// returning false triggers the explorer's deterministic early
		// cancellation; every execution before the cancellation position
		// still completes, so resolve sees the full sequential prefix of
		// failures and prunes exactly.
		return s.failures.add(p, classifyFailure(out))
	}
	s.mu.Lock()
	for _, k := range out.Coverage {
		if q, seen := s.pairs[k]; !seen || p.Before(q) {
			s.pairs[k] = append(q[:0], p...)
		}
	}
	en, isNew, herr := s.cache.lookup(out, s.d.relaxed)
	if herr != nil {
		s.errs = append(s.errs, posError{p.Clone(), herr})
		s.mu.Unlock()
		return false
	}
	if isNew || p.Before(en.first) {
		en.first = append(en.first[:0], p...)
	}
	done := en.done
	if isNew {
		done = make(chan struct{})
		en.done = done
		s.entries = append(s.entries, en)
		s.mu.Unlock()
		// Decide outside the lock: witness search is the expensive part. The
		// done channel must close on EVERY path out of the decision — a waiter
		// blocked on an entry whose decider died would hang its worker forever,
		// deadlocking ExploreParallel's final join — so the close is deferred
		// and a panicking decision (a buggy model or backend) is converted into
		// the entry's error, which every occurrence then reports at its own
		// position.
		func() {
			defer close(done)
			defer func() {
				if r := recover(); r != nil {
					en.violating, en.v, en.err = false, nil, fmt.Errorf("core: witness decision panicked: %v", r)
				}
			}()
			s.decide(en, out)
		}()
		// Decided: later visitors need not wait, and the channel can go.
		s.mu.Lock()
		en.done = nil
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
		if done != nil {
			// Wait for the deciding worker so that this occurrence reacts to
			// the decision exactly as a sequential exploration would at its
			// position — in particular a repeated occurrence of a failing key
			// must stop exploration here, or early cancellation could miss
			// the sequentially first stopping point.
			<-done
		}
	}
	if en.err != nil {
		s.mu.Lock()
		s.errs = append(s.errs, posError{p.Clone(), en.err})
		s.mu.Unlock()
		return false
	}
	// Every occurrence of a violating key reacts alike: stop here unless
	// exhausting.
	return !en.violating || s.exhaust
}

// decide settles a new entry from its first occurrence.
func (s *phase2Acc) decide(en *histEntry, out *sched.Outcome) {
	h, err := materialize(out, s.d.relaxed)
	if err == nil {
		en.v, err = s.d.witness(h)
	}
	if en.v != nil {
		en.schedule = append([]sched.ThreadID(nil), out.Schedule...)
	}
	en.violating, en.err = en.v != nil, err
}

// resolve returns the sequentially-first terminal event — a decision error,
// a failure-budget overflow (the (MaxFailures+1)-th failure), or, unless
// exhausting, the violating history first met earliest — together with the
// contained failures a sequential exploration would have recorded before
// stopping there. Distinct executions have distinct positions, so the
// precedence is total. With nothing terminal it returns the earliest
// violating entry (nil on a pass) and every failure.
func (s *phase2Acc) resolve() (*histEntry, []RuntimeFailure, error) {
	const (
		none = iota
		decisionError
		overflow
		violation
	)
	kind, at := none, sched.Pos(nil)
	consider := func(k int, p sched.Pos) {
		if kind == none || p.Before(at) {
			kind, at = k, p
		}
	}
	s.mu.Lock()
	var first *histEntry
	for _, en := range s.entries {
		if en.violating && (first == nil || en.first.Before(first.first)) {
			first = en
		}
	}
	var firstErr *posError
	for i := range s.errs {
		if pe := &s.errs[i]; firstErr == nil || pe.pos.Before(firstErr.pos) {
			firstErr = pe
		}
	}
	s.mu.Unlock()
	if firstErr != nil {
		consider(decisionError, firstErr.pos)
	}
	fs, max := s.failures.sorted(), s.failures.max
	if len(fs) > max {
		consider(overflow, fs[max].pos)
	}
	if first != nil && !s.exhaust {
		consider(violation, first.first)
	}
	switch kind {
	case decisionError:
		return nil, nil, firstErr.err
	case overflow:
		e := &TooManyFailuresError{Limit: max}
		for _, pf := range fs[:max] {
			e.Failures = append(e.Failures, pf.f)
		}
		return nil, nil, e
	}
	var contained []RuntimeFailure
	for _, pf := range fs {
		// Failures past a stopping violation were never reached sequentially
		// (in-flight parallel work may have visited them) and are pruned.
		if kind == violation && !pf.pos.Before(at) {
			break
		}
		contained = append(contained, pf.f)
	}
	return first, contained, nil
}

// stats completes the phase statistics from the explorer's: the distinct full
// and stuck histories, and the executions answered by an already-decided
// entry — every execution that did not fail counts for exactly one entry.
// stop, when non-nil, is the violating entry the exploration stopped at:
// in-flight work may have visited later executions, and an entry first met
// after the stop is one a sequential run never saw.
func (s *phase2Acc) stats(explored sched.ExploreStats, failures int, stop *histEntry) PhaseStats {
	ps := PhaseStats{Executions: explored.Executions, Decisions: explored.Decisions, Pruned: explored.Pruned}
	for _, en := range s.entries {
		switch {
		case stop.before(en.first):
		case en.stuck:
			ps.Stuck++
		default:
			ps.Histories++
		}
	}
	ps.DedupHits = ps.Executions - failures - ps.Histories - ps.Stuck
	return ps
}

// phase2 enumerates the concurrent executions of sub on m and checks every
// distinct history for witness existence under the selected witness mode,
// delegating the per-history decision to the backend selected by the options
// (spec-set lookup by default, model replay under WitnessMonitor). It is the
// shared engine behind Check, CheckAgainstModel, CheckAgainstSpec, and
// CheckWithMonitor; spec may be nil when the monitor backend is selected.
// Exhaustive exploration and Options.SampleSchedules differ only in which
// explorer feeds the accumulator; verdict, violation and statistics are the
// sequential DFS's for every worker count.
func phase2(sub *Subject, m *Test, spec *history.Spec, opts Options, mode witnessMode) (*Result, error) {
	if err := opts.validate(spec != nil, false); err != nil {
		return nil, err
	}
	res := &Result{Subject: sub, Test: m, Verdict: Pass}
	if spec != nil {
		if opts.KeepSpec {
			res.Spec = spec
		}
		if w, bad := spec.Nondeterministic(); bad {
			res.Verdict = Fail
			res.Violation = &Violation{Kind: Nondeterminism, Test: m, Nondet: w}
			return res, nil
		}
	}
	acc := newPhase2Acc(opts.decider(spec, m, mode), opts.ExhaustPhase2, opts.MaxFailures)
	start := time.Now()
	endSpan := opts.Telemetry.StartSpan("phase2")
	defer endSpan()
	defer flushCacheTelemetry(opts.Telemetry, acc.cache)
	// stop is the violating entry the exploration stopped at, once known.
	var stop *histEntry
	defer func() { opts.Coverage.add(acc, stop) }()
	cfg := opts.exploreConfig(false, false)
	var stats sched.ExploreStats
	var exploreErr error
	if opts.SampleSchedules > 0 {
		var holder any
		stats, exploreErr = sched.ExploreRandom(sched.RandomConfig{
			Config:            cfg.Config,
			Runs:              opts.SampleSchedules,
			Seed:              opts.SampleSeed,
			Strategy:          opts.SampleStrategy,
			Depth:             opts.PCTDepth,
			ContinueOnFailure: cfg.ContinueOnFailure,
			Telemetry:         cfg.Telemetry,
		}, program(sub, m, &holder), acc.visit)
	} else {
		stats, exploreErr = opts.explore(sub, m, cfg, acc.visit)
	}
	// A non-budget explorer error is an execution failure that precedes
	// every visit-level stop in sequential order (the explorer's own
	// minimal-position selection), so it wins.
	if exploreErr != nil && !errors.Is(exploreErr, sched.ErrBudget) {
		return nil, exploreErr
	}
	first, failures, err := acc.resolve()
	if err != nil {
		return nil, err
	}
	if exploreErr != nil {
		return nil, &BudgetError{Phase: 2, Executions: stats.Executions, Limit: opts.maxExecs()}
	}
	if !opts.ExhaustPhase2 {
		stop = first
	}
	res.Phase2 = acc.stats(stats, len(failures), stop)
	res.Phase2.Duration = time.Since(start)
	res.Failures = failures
	if first != nil {
		res.Verdict = Fail
		res.Violation = first.v
	}
	return res, nil
}

// CheckAgainstSpec runs phase 2 against a previously synthesized (or
// loaded) specification instead of re-running phase 1. This supports the
// regression-testing workflow of Section 4.2: record an observation file
// once, then re-verify the implementation's concurrent behaviors against it
// after every change. The determinism of the supplied spec is re-validated
// first.
func CheckAgainstSpec(sub *Subject, m *Test, spec *history.Spec, opts Options) (*Result, error) {
	return phase2(sub, m, spec, opts, modeGeneralized)
}
