package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lineup/internal/history"
	"lineup/internal/monitor"
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

// BudgetError reports that a phase stopped at its execution budget (two
// million executions) before its schedule space was exhausted. It wraps
// sched.ErrBudget.
type BudgetError struct {
	Phase      int // 1 (serial enumeration) or 2 (concurrent exploration)
	Executions int
	Limit      int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: phase %d ran out of budget after %d executions (limit %d): %v",
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
	// Phase 1 arms the containment config (watchdog, leak detection) but
	// stays strict: serial executions run deterministic subject code, so a
	// failure here is not schedule-dependent and aborts the check. Serial
	// exploration visits every serial history exactly once (decisions are
	// taken only between operations), so each outcome goes straight into the
	// spec, which deduplicates on its own.
	stats, exploreErr := ForEachSerialExecution(sub, m, opts, false, func(out *sched.Outcome) bool {
		var s *history.SerialHistory
		if s, err = serialHistory(out); err != nil {
			return false
		}
		spec.Add(s)
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

// phase2Decider is the per-history decision procedure of phase 2: only the
// first occurrence of a history's key (histCache) pays for its one decision.
type phase2Decider struct {
	decide func(*sched.Outcome) (ok bool, pending *history.Op, err error)
	m      *Test
	tel    *telemetry.Collector
}

// decider assembles the decision procedure the (validated) options select.
func (o Options) decider(spec *history.Spec, m *Test, mode monitor.Mode) *phase2Decider {
	return &phase2Decider{decide: o.decision(spec, mode), m: m, tel: o.Telemetry}
}

// outcome decides the history of out, the first occurrence of its key,
// returning the violation it proves (nil if the history is covered) or a
// decision error. The history is materialized only for a violation.
func (d *phase2Decider) outcome(out *sched.Outcome) (*Violation, error) {
	// One query per distinct history; search node counts are reported by
	// the monitor itself.
	d.tel.Add(telemetry.WitnessQueries, 1)
	ok, pending, err := d.decide(out)
	if err != nil || ok {
		return nil, err
	}
	h, err := OutcomeHistory(out)
	if err != nil {
		return nil, err
	}
	// A stuck violation names the pending operation without a witness.
	v := &Violation{Kind: NoWitness, Test: d.m, History: h, Pending: pending}
	if pending != nil {
		v.Kind = StuckNoWitness
	}
	return v, nil
}

// phase2Acc accumulates the phase-2 state of every exploration path: the
// exhaustive explorer at any worker count, one work unit (CheckUnit), and the
// merge of unit reports.
// Deduplication is shared across workers: each visitor encodes its key
// outside mu, and holds mu only for the coverage pairs, the cache probe and
// the entry's first position; the first visitor of a key decides it (all
// others wait for that decision), and every occurrence of a key,
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
	// observed (filled only while Options.coverage collects them).
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
	// The key is encoded before the lock, on the stack while it fits: a
	// Table-2 test's history takes a few hundred bytes.
	var buf [512]byte
	key, kerr := appendKey(buf[:0], out)
	s.mu.Lock()
	for _, k := range out.Coverage {
		if q, seen := s.pairs[k]; !seen || p.Before(q) {
			s.pairs[k] = append(q[:0], p...)
		}
	}
	if kerr != nil {
		s.errs = append(s.errs, posError{p.Clone(), kerr})
		s.mu.Unlock()
		return false
	}
	en, isNew := s.cache.probe(key, out.Stuck)
	if isNew || p.Before(en.first) {
		en.first = append(en.first[:0], p...)
	}
	if isNew {
		en.deciding = true
		s.entries = append(s.entries, en)
		s.mu.Unlock()
		// Decide outside the lock: witness search is the expensive part. The
		// decision must end on EVERY path out of it — a waiter blocked on an
		// entry whose decider died would hang its worker forever, deadlocking
		// ExploreParallel's final join — so its end is deferred and a
		// panicking decision (a buggy model or backend) is converted into the
		// entry's error, which every occurrence then reports at its own
		// position. Then later visitors need not wait, and waiting ones wake.
		func() {
			defer func() {
				if r := recover(); r != nil {
					en.violating, en.v, en.err = false, nil, fmt.Errorf("core: witness decision panicked: %v", r)
				}
				s.mu.Lock()
				en.deciding = false
				if en.done != nil {
					close(en.done)
				}
				s.mu.Unlock()
			}()
			s.decide(en, out)
		}()
	} else {
		var done chan struct{}
		if en.deciding {
			if en.done == nil {
				en.done = make(chan struct{})
			}
			done = en.done
		}
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
	en.v, en.err = s.d.outcome(out)
	if en.v != nil {
		en.schedule = append([]sched.ThreadID(nil), out.Schedule...)
	}
	en.violating = en.v != nil
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
// distinct history for witness existence with the one decision function the
// options select (spec-set lookup by default, model replay when they name a
// MonitorModel; mode reaches the monitor only).
// It is the shared engine behind Check, CheckAgainstModel, CheckAgainstSpec,
// and CheckWithMonitor; spec may be nil when a model decides. Verdict,
// violation and statistics are the sequential DFS's for every worker count.
func phase2(sub *Subject, m *Test, spec *history.Spec, opts Options, mode monitor.Mode) (*Result, error) {
	if err := opts.validate(sub, spec != nil); err != nil {
		return nil, err
	}
	res := &Result{Subject: sub, Test: m, Verdict: Pass}
	if spec != nil {
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
	defer func() { opts.coverage.add(acc, stop) }()
	cfg := opts.exploreConfig(false, false)
	stats, exploreErr := opts.explore(sub, m, cfg, acc.visit)
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
	return phase2(sub, m, spec, opts, monitor.ModeAuto)
}
