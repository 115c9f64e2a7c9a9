package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lineup/internal/history"
	"lineup/internal/sched"
)

// Distributed checking support: PlanUnits splits a check's phase-2 schedule
// tree into sched.WorkUnits, CheckUnit runs phase 2 over exactly one unit in
// any process (re-synthesizing the deterministic phase-1 spec locally, so a
// worker needs nothing but the subject, the test, the options, and the
// unit), and MergeUnitReports folds the per-unit reports back into a Result.
// The merge folds the reports into the same accumulator every in-process path
// feeds and resolves it by the same min-position precedence — every violating
// key and every failure carries its sched.Pos, which orders executions of all
// units exactly as the sequential DFS visits them — so the merged verdict,
// phase statistics, first violation, and failure handling are bit-identical
// to the sequential explorer with Options.ExhaustPhase2, no matter how units
// were assigned, reassigned, or replayed. internal/dist builds the
// fault-tolerant coordinator/worker machinery on top of these three calls.

// ErrUnitAborted is returned by CheckUnit when the tick callback asked the
// unit to stop (a worker whose lease was revoked, or whose coordinator went
// away).
var ErrUnitAborted = errors.New("core: work unit aborted by tick callback")

// UnitKey is one distinct history observed inside a work unit: its key plus
// what the merge needs to place a violating one.
type UnitKey struct {
	// Key is the history's key (histCache): its own bytes, the same in every
	// process, which is what lets the merge deduplicate histories discovered
	// by different workers.
	Key []byte `json:"key"`
	// Stuck marks a stuck (vs complete) history.
	Stuck bool `json:"stuck,omitempty"`
	// First is the position of a violating history's first occurrence in
	// the unit, comparable across units.
	First sched.Pos `json:"first,omitempty"`
	// Violating marks a history the witness decision rejected.
	Violating bool `json:"violating,omitempty"`
	// Schedule is the decision schedule of the first occurrence, recorded for
	// violating keys only so the coordinator can regenerate the full
	// violation report by deterministic replay.
	Schedule []sched.ThreadID `json:"schedule,omitempty"`
}

// UnitFailure is one contained runtime failure observed inside a work unit.
type UnitFailure struct {
	// Pos is the failed execution's position, comparable across units.
	Pos sched.Pos `json:"pos"`
	// Failure is the classified record (kind, message, replay schedule).
	Failure RuntimeFailure `json:"failure"`
}

// UnitReport is the complete, serializable outcome of CheckUnit on one work
// unit. Reports are a pure function of (subject, test, options, unit):
// replaying a unit yields a byte-identical report, so a coordinator may merge
// whichever replica of a reassigned unit finished first.
type UnitReport struct {
	Unit       int           `json:"unit"`
	Executions int           `json:"executions"`
	Decisions  int           `json:"decisions"`
	Pruned     int           `json:"pruned"`
	Truncated  bool          `json:"truncated,omitempty"`
	Keys       []UnitKey     `json:"keys"`
	Failures   []UnitFailure `json:"failures,omitempty"`
}

// UnitPlan is the coordinator-side preparation of a distributed check:
// phase 1 plus the unit split of the phase-2 tree. Plans are deterministic —
// re-planning the same (subject, test, options, depth) reproduces the same
// units — which is how a restarted coordinator revalidates a durable
// manifest.
type UnitPlan struct {
	// Spec is the phase-1 specification (needed again at merge time to
	// regenerate the reported violation).
	Spec *history.Spec
	// Phase1 is the phase-1 statistics of the plan's own synthesis run.
	Phase1 PhaseStats
	// Nondet, when non-nil, is a phase-1 nondeterminism violation: the check
	// already failed and there is nothing to distribute (Units is empty).
	Nondet *Violation
	// Units is the phase-2 work-unit split.
	Units []sched.WorkUnit
	// Split is the split accounting; Split.Pruned is the generator's share of
	// the merged Pruned total.
	Split sched.SplitStats
}

// distExploreConfig is the phase-2 exploration configuration of the
// distributed path: identical to the sequential phase 2 except that failures
// are always handed to the visit callback (they are data in a unit report;
// the failure budget is applied at merge time, where the sequential
// precedence can be reproduced) and goroutine-leak detection is forced off
// (it is process-global, and units may run concurrently in one process).
func distExploreConfig(opts Options) sched.ExploreConfig {
	cfg := opts.exploreConfig(false, false)
	cfg.ContinueOnFailure = true
	cfg.DetectLeaks = false
	return cfg
}

// PlanUnits runs phase 1 and splits the phase-2 schedule tree into work
// units, backtracking only within the first depth decision levels (0 selects
// sched.DefaultShardDepth). If phase 1 exposes nondeterministic serial
// behavior the plan carries the violation and no units.
func PlanUnits(sub *Subject, m *Test, opts Options, depth int) (*UnitPlan, error) {
	if err := opts.validate(true, true); err != nil {
		return nil, err
	}
	spec, p1, err := SynthesizeSpec(sub, m, opts)
	if err != nil {
		return nil, err
	}
	plan := &UnitPlan{Spec: spec, Phase1: p1}
	if w, bad := spec.Nondeterministic(); bad {
		plan.Nondet = &Violation{Kind: Nondeterminism, Test: m, Nondet: w}
		return plan, nil
	}
	var holder any
	units, split, err := sched.SplitUnits(distExploreConfig(opts), program(sub, m, &holder), depth)
	if err != nil {
		return nil, err
	}
	plan.Units, plan.Split = units, split
	return plan, nil
}

// CheckUnit runs phase 2 over exactly one work unit and returns its report.
// The phase-1 specification is re-synthesized locally — phase 1 is serial and
// deterministic, so every worker computes the same spec — which keeps units
// self-contained enough to ship to a worker process as a small JSON file.
//
// tick, when non-nil, is called once per execution before it is processed;
// returning false aborts the unit with ErrUnitAborted. Workers use it to
// emit heartbeats and to notice a revoked lease. Failed executions (panic,
// hang) never abort the unit: they are classified and recorded in the report,
// and the merge applies Options.MaxFailures with sequential precedence.
func CheckUnit(sub *Subject, m *Test, opts Options, u sched.WorkUnit, tick func() bool) (*UnitReport, error) {
	return CheckUnitWithSpec(sub, m, opts, u, nil, tick)
}

// CheckUnitWithSpec is CheckUnit with the phase-1 specification supplied by
// the caller — typically shipped inside an exec worker's job file, so small
// units skip the per-unit re-synthesis that otherwise dominates their cost
// (see EXPERIMENTS.md). A nil spec synthesizes locally, which is what
// CheckUnit does. Phase 1 is deterministic, so a faithfully transported spec
// yields a byte-identical unit report.
func CheckUnitWithSpec(sub *Subject, m *Test, opts Options, u sched.WorkUnit, spec *history.Spec, tick func() bool) (*UnitReport, error) {
	if err := opts.validate(true, true); err != nil {
		return nil, err
	}
	if spec == nil {
		var err error
		spec, _, err = SynthesizeSpec(sub, m, opts)
		if err != nil {
			return nil, err
		}
	}
	if _, bad := spec.Nondeterministic(); bad {
		return nil, errors.New("core: phase 1 is nondeterministic; the check fails before any unit runs")
	}
	// A unit exhausts its subtree and keeps every failure: stopping at a
	// violation and the failure budget are the merge's decisions.
	acc := newPhase2Acc(opts.decider(spec, m, modeGeneralized), true, math.MaxInt)
	defer flushCacheTelemetry(opts.Telemetry, acc.cache)
	aborted := false
	var holder any
	stats, exploreErr := sched.ExploreUnit(distExploreConfig(opts), program(sub, m, &holder), u, func(out *sched.Outcome, p sched.Pos) bool {
		if tick != nil && !tick() {
			aborted = true
			return false
		}
		return acc.visit(out, p)
	})
	if aborted {
		return nil, ErrUnitAborted
	}
	if exploreErr != nil && !errors.Is(exploreErr, sched.ErrBudget) {
		return nil, exploreErr
	}
	// Only a decision error is terminal here; it fails the unit.
	if _, _, err := acc.resolve(); err != nil {
		return nil, err
	}
	rep := &UnitReport{
		Unit: u.Seq, Executions: stats.Executions, Decisions: stats.Decisions, Pruned: stats.Pruned,
		Truncated: stats.Truncated, Keys: make([]UnitKey, len(acc.entries)),
	}
	// A lone DFS visits in position order, so entries and failures are
	// already in the order a replay reproduces.
	for i, en := range acc.entries {
		rep.Keys[i] = UnitKey{Key: []byte(en.key), Stuck: en.stuck, Violating: en.violating, Schedule: en.schedule}
		if en.violating {
			rep.Keys[i].First = en.first
		}
	}
	for _, pf := range acc.failures.sorted() {
		rep.Failures = append(rep.Failures, UnitFailure{Pos: pf.pos, Failure: pf.f})
	}
	return rep, nil
}

// fold adds unit reports to the accumulator a single exhaustive check would
// have filled — one entry per distinct history (keys deduplicate across
// units), a violating one at its minimal position, every failure at its
// position — and returns their summed statistics and whether any unit ran out
// of budget. Nil reports (units that never completed) are skipped.
func (s *phase2Acc) fold(reports []*UnitReport) (stats PhaseStats, truncated bool, err error) {
	var explored sched.ExploreStats
	for _, r := range reports {
		if r == nil {
			continue
		}
		explored.Executions += r.Executions
		explored.Decisions += r.Decisions
		explored.Pruned += r.Pruned
		truncated = truncated || r.Truncated
		for _, k := range r.Keys {
			en, ok := s.cache.m[string(k.Key)]
			if !ok {
				en = &histEntry{key: string(k.Key), stuck: k.Stuck, violating: k.Violating}
				s.cache.m[en.key] = en
				s.entries = append(s.entries, en)
			}
			if en.stuck != k.Stuck || en.violating != k.Violating {
				return stats, truncated, fmt.Errorf("core: unit %d disagrees with an earlier unit about a history key (corrupt or mismatched reports)", r.Unit)
			}
			if en.violating && (!ok || k.First.Before(en.first)) {
				en.first, en.schedule = k.First, k.Schedule
			}
		}
		for _, f := range r.Failures {
			s.failures.add(f.Pos, f.Failure)
		}
	}
	return s.stats(explored, len(s.failures.fs), nil), truncated, nil
}

// PartialStats merges the phase-2 statistics of whichever units completed —
// executions, decisions, prunes, and cross-unit distinct-history accounting —
// for a degraded result that cannot claim a verdict.
func PartialStats(reports []*UnitReport) PhaseStats {
	stats, _, _ := newPhase2Acc(nil, true, 0).fold(reports)
	return stats
}

// MergeUnitReports folds one report per unit of plan back into a Result,
// bit-identical to the sequential explorer with Options.ExhaustPhase2 (phase
// durations excepted: the merge does no wall-clock accounting; callers that
// want durations stamp them). Histories are deduplicated by key across
// units, the reported violation is regenerated by deterministic
// replay of the minimal-position violating history, and the failure budget
// is applied with the sequential precedence: with MaxFailures == 0 the
// minimal-position failure's error aborts the merge exactly as it would have
// aborted the sequential explorer, and an over-budget failure set yields the
// same *TooManyFailuresError.
//
// Reports may arrive in any order but must cover every unit exactly once;
// duplicates of the same unit (reassigned leases) must be resolved by the
// caller — replays are byte-identical, so keeping any one replica is
// correct.
func MergeUnitReports(sub *Subject, m *Test, opts Options, plan *UnitPlan, reports []*UnitReport) (*Result, error) {
	res := &Result{Subject: sub, Test: m, Verdict: Pass, Phase1: plan.Phase1}
	if plan.Nondet != nil {
		res.Verdict = Fail
		res.Violation = plan.Nondet
		return res, nil
	}
	if len(reports) != len(plan.Units) {
		return nil, fmt.Errorf("core: merge needs %d unit reports, got %d", len(plan.Units), len(reports))
	}
	sorted := append([]*UnitReport(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Unit < sorted[j].Unit })
	for i, r := range sorted {
		if r == nil || r.Unit != i {
			return nil, fmt.Errorf("core: merge reports do not cover every unit exactly once (slot %d)", i)
		}
	}
	acc := newPhase2Acc(opts.decider(plan.Spec, m, modeGeneralized), true, opts.MaxFailures)
	stats, truncated, err := acc.fold(sorted)
	if err != nil {
		return nil, err
	}
	stats.Pruned += plan.Split.Pruned
	res.Phase2 = stats
	if truncated {
		// The budget applies per unit; Executions is the merged total.
		return nil, &BudgetError{Phase: 2, Executions: stats.Executions, Limit: opts.maxExecs()}
	}
	replay := func(what string, schedule []sched.ThreadID) (*sched.Outcome, error) {
		var holder any
		out, err := sched.ReplaySchedule(opts.exploreConfig(false, false).Config, program(sub, m, &holder), schedule)
		if err != nil {
			return nil, fmt.Errorf("core: replaying the first %s diverged: %w", what, err)
		}
		return out, nil
	}
	if fs := acc.failures.sorted(); len(fs) > 0 && opts.MaxFailures == 0 {
		// Without containment the sequential explorer aborts at the first
		// failed execution with its error; regenerate that exact error by
		// replaying the failure.
		out, err := replay("failure", fs[0].f.Schedule)
		if err != nil {
			return nil, err
		}
		if err := out.FailureError(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: replaying the first failure did not fail: %s", fs[0].f)
	}
	first, failures, err := acc.resolve()
	if err != nil {
		return nil, err
	}
	res.Failures = failures
	if first != nil {
		out, err := replay("violation", first.schedule)
		if err != nil {
			return nil, err
		}
		acc.decide(first, out)
		if first.err != nil {
			return nil, first.err
		}
		if first.v == nil {
			return nil, errors.New("core: replayed violating history has a serial witness (corrupt or mismatched reports)")
		}
		res.Verdict = Fail
		res.Violation = first.v
	}
	if opts.KeepSpec {
		res.Spec = plan.Spec
	}
	return res, nil
}
