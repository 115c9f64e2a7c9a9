// Package dist distributes phase-2 exploration across worker processes with
// lease-based fault tolerance. The coordinator splits the schedule tree into
// sched.WorkUnits (core.PlanUnits), leases each unit to a worker with a
// heartbeat-renewed deadline, and merges per-unit reports with the same
// min-position rule every in-process exploration uses — so the merged
// verdict, statistics, and first violation are bit-identical to the
// sequential explorer regardless of worker count, kill schedule, or lease
// reassignment order.
//
// Robustness model: a worker that panics, hangs past its lease, or is
// kill -9'd simply stops heartbeating; the coordinator revokes the lease and
// re-queues the unit with exponential backoff. Re-running a unit is safe
// because units are pure checkpoint replays — a replayed unit produces a
// byte-identical report, so at-least-once assignment merges exactly-once
// results. Unit state is journaled through obsfile.AtomicWriteFile after
// every transition, so a coordinator killed at any instant resumes from the
// durable manifest without re-running completed units or double-counting
// their statistics. A unit that exhausts its retry budget poisons the run:
// the coordinator finishes everything else and returns a structured
// *PoisonedUnitsError naming the poisoned units with the merged statistics
// of the completed ones.
package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lineup/internal/core"
	"lineup/internal/obsfile"
	"lineup/internal/telemetry"
)

// Config drives one distributed check.
type Config struct {
	// Subject and Test identify the check; Options configure it exactly as
	// they would a sequential core.Check. The merged result matches the
	// sequential explorer with Options.ExhaustPhase2.
	Subject *core.Subject
	Test    *core.Test
	Options core.Options

	// Dir, when non-empty, holds the durable state: manifest.json (unit
	// states, journaled atomically on every transition) and one report file
	// per completed unit. A coordinator restarted with the same Dir resumes
	// from the manifest. Empty Dir keeps everything in memory (no crash
	// recovery).
	Dir string

	// Workers is the number of concurrently leased units (default: NumCPU).
	Workers int
	// Depth is the split depth handed to core.PlanUnits (0 = default).
	Depth int

	// Lease is how long a worker may go without a heartbeat before its lease
	// is revoked and the unit re-queued (default 10s). Workers heartbeat at
	// Lease/4, so a healthy worker renews several times per lease; see
	// DESIGN.md §6 for lease length vs. the execution watchdog.
	Lease time.Duration
	// MaxAttempts is the per-unit retry budget: a unit whose lease fails or
	// expires this many times is poisoned (default 3).
	MaxAttempts int
	// Backoff is the base re-queue delay after a failed or expired lease,
	// doubled for each prior attempt (default 25ms).
	Backoff time.Duration

	// Launcher runs leased units (default: an InProcLauncher over Subject/
	// Test/Options). ExecLauncher runs them as separate OS processes.
	Launcher Launcher
	// Telemetry, when non-nil, receives lease/retry/unit counters.
	Telemetry *telemetry.Collector
}

// Stats summarizes the coordinator's fault-tolerance activity.
type Stats struct {
	Units          int // work units in the plan
	Done           int // units completed (this run; resumed units not re-counted)
	Resumed        int // units restored already-done from a prior manifest
	Poisoned       int // units that exhausted their retry budget
	LeasesGranted  int // leases handed to workers
	LeasesExpired  int // leases revoked after heartbeat loss
	Retries        int // re-queues after a failed or expired lease
	StaleReports   int // deliveries from superseded leases, discarded
	WorkerFailures int // worker runs that returned an error
}

// count records one lease event: in the coordinator's own Stats, which Run
// returns and whose Poisoned decides Run's error, and under k on the shared
// collector, which only observes.
func (c *Config) count(stat *int, k telemetry.Counter) {
	*stat++
	c.Telemetry.Add(k, 1)
}

// PoisonedUnit names one unit that exhausted its retry budget.
type PoisonedUnit struct {
	Seq      int    `json:"seq"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err,omitempty"`
}

// PoisonedUnitsError is the graceful-degradation result of a run in which
// some units exhausted their retry budget: every healthy unit was still
// completed, and the error carries the merged phase-2 statistics of the
// completed subtrees alongside the poisoned units — a partial result in the
// spirit of core.TooManyFailuresError rather than a hang or a panic.
type PoisonedUnitsError struct {
	// Poisoned lists the exhausted units in sequence order.
	Poisoned []PoisonedUnit
	// Done and Units are the completed and total unit counts.
	Done, Units int
	// Partial is the merged phase-2 statistics over the completed units
	// (executions, decisions, distinct histories, dedup hits). No verdict is
	// claimed: the unexplored subtrees could hold the first violation.
	Partial core.PhaseStats
}

func (e *PoisonedUnitsError) Error() string {
	seqs := make([]int, len(e.Poisoned))
	for i, p := range e.Poisoned {
		seqs[i] = p.Seq
	}
	return fmt.Sprintf("dist: %d of %d units exhausted their retry budget (units %v); %d completed, partial stats %+v",
		len(e.Poisoned), e.Units, seqs, e.Done, e.Partial)
}

func (c Config) withDefaults() (Config, error) {
	if c.Subject == nil || c.Test == nil {
		return c, errors.New("dist: Config needs a Subject and a Test")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Lease <= 0 {
		c.Lease = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.Launcher == nil {
		c.Launcher = &InProcLauncher{Subject: c.Subject, Test: c.Test, Options: c.Options}
	}
	return c, nil
}

// unit lifecycle: pending -> leased -> done, or pending -> leased -> pending
// (retry with backoff) -> ... -> poisoned once attempts hit the budget.
type unitState int

const (
	uPending unitState = iota
	uLeased
	uDone
	uPoisoned
)

func (s unitState) String() string {
	switch s {
	case uPending:
		return "pending"
	case uLeased:
		return "leased" // volatile: never journaled
	case uDone:
		return "done"
	case uPoisoned:
		return "poisoned"
	}
	return fmt.Sprintf("unitState(%d)", int(s))
}

type unitRec struct {
	state      unitState
	attempts   int // leases granted so far
	lastErr    string
	eligibleAt time.Time          // pending: earliest re-lease time
	deadline   time.Time          // leased: heartbeat deadline
	cancel     context.CancelFunc // leased: revokes the worker's context
}

// Run executes one distributed check and returns the merged result, which is
// bit-identical (durations aside) to the sequential explorer with
// Options.ExhaustPhase2. Terminal outcomes besides success: a
// *PoisonedUnitsError when units exhausted their retry budget, the same
// errors sequential checking produces (failure aborts, budget overflow), and
// ctx cancellation.
func Run(ctx context.Context, cfg Config) (*core.Result, Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	plan, err := core.PlanUnits(cfg.Subject, cfg.Test, cfg.Options, cfg.Depth)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Units: len(plan.Units)}
	if plan.Nondet != nil {
		res, err := core.MergeUnitReports(cfg.Subject, cfg.Test, cfg.Options, plan, nil)
		if res != nil {
			res.Phase1.Duration = time.Since(start)
		}
		return res, stats, err
	}

	recs := make([]*unitRec, len(plan.Units))
	for i := range recs {
		recs[i] = &unitRec{state: uPending}
	}
	reports := make([]*core.UnitReport, len(plan.Units))
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, stats, fmt.Errorf("dist: state dir: %w", err)
		}
		if err := resumeManifest(cfg, plan, recs, reports, &stats); err != nil {
			return nil, stats, err
		}
	}
	journal := func() error { return saveManifest(cfg, plan, recs) }
	if err := journal(); err != nil {
		return nil, stats, err
	}

	// Every runner sends exactly one completion; total leases over the run
	// are bounded by units*MaxAttempts, so a buffer that size means no
	// runner ever blocks on a coordinator that has moved on.
	doneCh := make(chan unitDelivery, len(plan.Units)*cfg.MaxAttempts+1)
	hbCh := make(chan UnitSpec, 4*cfg.Workers+16)
	running := 0
	terminal := 0
	for _, r := range recs {
		if r.state == uDone || r.state == uPoisoned {
			terminal++
		}
	}

	retire := func(rec *unitRec, now time.Time) {
		// The lease just ended unsuccessfully; re-queue or poison.
		if rec.attempts >= cfg.MaxAttempts {
			rec.state = uPoisoned
			terminal++
			cfg.count(&stats.Poisoned, telemetry.DistUnitsPoisoned)
			return
		}
		rec.state = uPending
		rec.eligibleAt = now.Add(cfg.Backoff << (rec.attempts - 1))
		cfg.count(&stats.Retries, telemetry.DistRetries)
	}

	for terminal < len(plan.Units) {
		now := time.Now()
		// Grant leases to the lowest-sequence eligible pending units.
		for running < cfg.Workers {
			seq := -1
			for i, r := range recs {
				if r.state == uPending && !r.eligibleAt.After(now) {
					seq = i
					break
				}
			}
			if seq < 0 {
				break
			}
			rec := recs[seq]
			rec.attempts++
			rec.state = uLeased
			rec.deadline = now.Add(cfg.Lease)
			wctx, cancel := context.WithCancel(ctx)
			rec.cancel = cancel
			running++
			cfg.count(&stats.LeasesGranted, telemetry.DistLeasesGranted)
			spec := UnitSpec{Seq: seq, Attempt: rec.attempts, Unit: plan.Units[seq], HeartbeatEvery: cfg.Lease / 4,
				cfg: &cfg, phase1: plan.Spec}
			go func(wctx context.Context, spec UnitSpec) {
				hb := func() {
					select {
					case hbCh <- spec:
					default: // a dropped heartbeat is harmless; the next renews
					}
				}
				rep, err := cfg.Launcher.Run(wctx, spec, hb)
				doneCh <- unitDelivery{spec: spec, report: rep, err: err}
			}(wctx, spec)
		}

		// Sleep until the next actionable instant: a lease deadline, a
		// backoff expiry, or an event.
		wake := now.Add(cfg.Lease)
		for _, r := range recs {
			switch r.state {
			case uLeased:
				if r.deadline.Before(wake) {
					wake = r.deadline
				}
			case uPending:
				if r.eligibleAt.After(now) && r.eligibleAt.Before(wake) {
					wake = r.eligibleAt
				}
			}
		}
		timer := time.NewTimer(time.Until(wake))
		select {
		case <-ctx.Done():
			timer.Stop()
			for _, r := range recs {
				if r.cancel != nil {
					r.cancel()
				}
			}
			return nil, stats, ctx.Err()

		case spec := <-hbCh:
			timer.Stop()
			rec := recs[spec.Seq]
			if rec.state == uLeased && rec.attempts == spec.Attempt {
				rec.deadline = time.Now().Add(cfg.Lease)
			}

		case d := <-doneCh:
			timer.Stop()
			rec := recs[d.spec.Seq]
			if rec.state != uLeased || rec.attempts != d.spec.Attempt {
				// A superseded lease finished after revocation (or the unit
				// is already done from a faster replica): discard — replays
				// are byte-identical, so keeping the first is correct.
				cfg.count(&stats.StaleReports, telemetry.DistStaleReports)
				continue
			}
			running--
			rec.cancel()
			rec.cancel = nil
			if d.err != nil || d.report == nil {
				cfg.count(&stats.WorkerFailures, telemetry.DistWorkerFailures)
				rec.lastErr = "worker returned no report"
				if d.err != nil {
					rec.lastErr = d.err.Error()
				}
				retire(rec, time.Now())
				if err := journal(); err != nil {
					return nil, stats, err
				}
				continue
			}
			if cfg.Dir != "" {
				if err := obsfile.AtomicWriteJSON(reportPath(cfg.Dir, d.spec.Seq), d.report); err != nil {
					return nil, stats, err
				}
			}
			reports[d.spec.Seq] = d.report
			rec.state = uDone
			terminal++
			cfg.count(&stats.Done, telemetry.DistUnitsDone)
			if err := journal(); err != nil {
				return nil, stats, err
			}

		case <-timer.C:
			now := time.Now()
			for _, rec := range recs {
				if rec.state == uLeased && !rec.deadline.After(now) {
					// Heartbeat lost: the worker panicked, hung, or was
					// kill -9'd. Revoke and re-queue; the idempotent replay
					// makes the reassignment safe.
					rec.cancel()
					rec.cancel = nil
					running--
					rec.lastErr = "lease expired (heartbeat lost)"
					cfg.count(&stats.LeasesExpired, telemetry.DistLeasesExpired)
					retire(rec, now)
					if err := journal(); err != nil {
						return nil, stats, err
					}
				}
			}
		}
	}

	if stats.Poisoned > 0 {
		e := &PoisonedUnitsError{Units: len(plan.Units), Done: stats.Done + stats.Resumed}
		for seq, rec := range recs {
			if rec.state == uPoisoned {
				e.Poisoned = append(e.Poisoned, PoisonedUnit{Seq: seq, Attempts: rec.attempts, LastErr: rec.lastErr})
			}
		}
		sort.Slice(e.Poisoned, func(i, j int) bool { return e.Poisoned[i].Seq < e.Poisoned[j].Seq })
		e.Partial = core.PartialStats(reports)
		return nil, stats, e
	}
	all := make([]*core.UnitReport, 0, len(reports))
	for _, r := range reports {
		all = append(all, r)
	}
	res, err := core.MergeUnitReports(cfg.Subject, cfg.Test, cfg.Options, plan, all)
	if res != nil {
		res.Phase2.Duration = time.Since(start) - res.Phase1.Duration
		if res.Phase1.Duration == 0 {
			res.Phase1.Duration = plan.Phase1.Duration
		}
	}
	return res, stats, err
}

// unitDelivery is a runner's single completion message.
type unitDelivery struct {
	spec   UnitSpec
	report *core.UnitReport
	err    error
}

func reportPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("unit-%06d.json", seq))
}
