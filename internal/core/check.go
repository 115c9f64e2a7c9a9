package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// Preemption-bound sentinels for Options.PreemptionBound.
const (
	// DefaultBound is the CHESS default the paper uses ("2, except where it
	// performed unacceptably slow").
	DefaultBound = 2
	// Unbounded disables preemption bounding in phase 2.
	Unbounded = sched.Unbounded
	// NoPreemptions allows zero preemptions (only voluntary switches at
	// blocking and termination points).
	NoPreemptions = -2
)

// Options configures Check. The struct is also the one list of what a check's
// configuration is: the json tags are its written form — what the dist job
// file and manifest and the RandomCheck checkpoint hold and what a resume
// compares field by field (ResumeMismatch) — every value type has one text
// form (its MarshalText), and a field tagged "-" is a hook or a sink of this
// process that does not travel. A new field has to pick one of the two
// (TestOptionFieldsDeclareTheirForm).
type Options struct {
	// PreemptionBound bounds preemptive context switches in phase 2. The
	// zero value selects DefaultBound; use NoPreemptions for an explicit
	// bound of zero and Unbounded for no bounding.
	PreemptionBound int `json:"preemption_bound,omitempty"`
	// Granularity selects the preemption granularity of phase 2.
	Granularity sched.Granularity `json:"granularity,omitempty"`
	// MaxExecutionsPerPhase is a safety net against schedule-space blowups
	// (0 = default 2,000,000). A phase that reaches it aborts the check with
	// a *BudgetError naming the phase.
	MaxExecutionsPerPhase int `json:"max_executions_per_phase,omitempty"`
	// KeepSpec retains the synthesized specification in the result (needed
	// for writing observation files; costs memory).
	KeepSpec bool `json:"keep_spec,omitempty"`
	// ExhaustPhase2 keeps exploring after the first violation so that
	// statistics cover the whole schedule space. The first violation is
	// still the one reported.
	ExhaustPhase2 bool `json:"exhaust_phase2,omitempty"`
	// RelaxedOps lists operations (by display name, e.g. "Count()") whose
	// results are treated as nondeterministic: they are wildcarded before
	// specification synthesis and witness checking (see Options.Relax).
	RelaxedOps []string `json:"relaxed_ops,omitempty"`
	// Consistency selects the correctness criterion for complete histories:
	// strict linearizability (the zero value), sequential consistency, or
	// quiescent consistency (see the Consistency constants). The relaxed
	// criteria require the spec-lookup witness backend; combining them with
	// WitnessMonitor is an error. Stuck histories are always checked
	// strictly.
	Consistency Consistency `json:"consistency,omitempty"`
	// Coverage, when non-nil, accumulates the (MemKind, location) footprint
	// pairs and canonical phase-2 history hashes the check observes. It is
	// the feedback signal of coverage-guided generation (Generate) and is
	// observe-only: it never influences a verdict. One Coverage may be
	// shared across many checks; phase 1 (serial executions) contributes no
	// pairs, so the signal stays concurrency-specific.
	Coverage *Coverage `json:"-"`
	// SampleSchedules, when positive, replaces exhaustive phase-2
	// exploration with this many randomly sampled schedules (see
	// SampleStrategy). Sampling gives up the coverage of exhaustive
	// preemption-bounded search but scales to long tests; any violation it
	// finds is still a proof of non-linearizability (completeness is
	// per-violation, not per-search).
	SampleSchedules int `json:"sample_schedules,omitempty"`
	// SampleStrategy selects the sampling scheduler (random walk or PCT).
	SampleStrategy sched.Strategy `json:"sample_strategy,omitempty"`
	// SampleSeed makes schedule sampling reproducible.
	SampleSeed int64 `json:"sample_seed,omitempty"`
	// PCTDepth is the PCT bug-depth parameter (0 = default).
	PCTDepth int `json:"pct_depth,omitempty"`
	// WitnessSearch selects phase 2's witness decision backend: spec-set
	// lookup (the default, Fig. 5) or the monitor's model-replay search.
	WitnessSearch WitnessSearch `json:"witness,omitempty"`
	// MonitorModel is the executable sequential model consulted when
	// WitnessSearch is WitnessMonitor (see CheckWithMonitor).
	MonitorModel *monitor.Model `json:"model,omitempty"`
	// Workers is the number of goroutines that explore the phase-2 schedule
	// space of one check (sched.ExploreParallel). It cannot be observed in a
	// result: the verdict, the reported violation, the contained failures and
	// every phase statistic but Duration are those of the sequential DFS for
	// any value, on passing, exhaustive and stop-at-first-violation runs
	// alike. 0 selects one per CPU the process may use, or 1 when DetectLeaks
	// is set or an outer pool (RandomOptions.Workers) already runs checks
	// side by side; 1 is the explicit sequential run. Subject code runs on
	// several goroutines at once when more than one worker explores, each on
	// its own instance from Subject.New. Sampling (SampleSchedules) and
	// phase 1 ignore Workers.
	Workers int `json:"explore_workers,omitempty"`
	// ShardProgress, when non-nil, receives progress snapshots of the
	// phase-2 exploration (shards created/retired, executions started). It
	// is called under an internal lock and must return quickly.
	ShardProgress func(sched.ShardProgress) `json:"-"`
	// Watchdog, when positive, arms the scheduler's wall-clock watchdog on
	// every execution: a subject that blocks on an uninstrumented primitive
	// or spins without yielding is abandoned after this interval and
	// reported as a hung execution instead of hanging the checker. See
	// sched.Config.Watchdog.
	Watchdog time.Duration `json:"watchdog,omitempty"`
	// DetectLeaks reports subject goroutines that survive an execution
	// (raw `go` statements escaping the scheduler) as leak failures. It
	// counts the goroutines of the whole process, so it needs executions to
	// run one at a time: Workers 0 then means 1, and an explicit Workers > 1
	// (here or in RandomOptions) is refused.
	DetectLeaks bool `json:"detect_leaks,omitempty"`
	// Reduction selects the explorer's partial-order reduction for phase 2
	// (sched.ReductionNone or sched.ReductionSleep). Sleep-set reduction
	// prunes schedules that only reorder independent steps; the verdict, the
	// reported violation, and the set of distinct histories are bit-identical
	// to an unreduced run while Executions drops (often by several times).
	// Phase 1 is serial and never reduced; sampling ignores Reduction.
	Reduction sched.Reduction `json:"reduction,omitempty"`
	// MaxFailures enables graceful degradation in phase 2: up to this many
	// failed executions (panic, hung, leak) are classified and recorded in
	// Result.Failures while exploration continues, instead of aborting the
	// check at the first failure. Exceeding the budget aborts with
	// *TooManyFailuresError. Zero keeps the strict behavior: the first
	// failure aborts the check with its error. The recorded set and the
	// sequentially-first failure are the same for any Workers count.
	// Phase 1 is always strict: serial executions run deterministic subject
	// code whose failures are not schedule-dependent.
	MaxFailures int `json:"max_failures,omitempty"`
	// Telemetry, when non-nil, collects counters and phase wall-clock spans
	// from both phases, the explorer, and the witness backend (see package
	// telemetry). It is observe-only: every value reported in Result and
	// PhaseStats is computed from the deterministic explorer statistics,
	// never read back from the collector, so enabling telemetry cannot
	// change a verdict. One collector may be shared across tests and phases.
	Telemetry *telemetry.Collector `json:"-"`
}

// exploreConfig assembles the exploration configuration the options imply,
// for phase 1 (serial: unbounded, unreduced, always strict about failures) or
// phase 2. Every exploration core starts goes through it (sampling and
// replay take its per-execution Config), so the containment settings, budget,
// and telemetry apply uniformly.
func (o Options) exploreConfig(serial, recordTrace bool) sched.ExploreConfig {
	cfg := sched.ExploreConfig{
		Config: sched.Config{
			Serial:        serial,
			Granularity:   o.Granularity,
			RecordTrace:   recordTrace,
			Watchdog:      o.Watchdog,
			DetectLeaks:   o.DetectLeaks,
			TrackCoverage: o.Coverage != nil && !serial,
		},
		PreemptionBound: sched.Unbounded,
		MaxExecutions:   o.maxExecs(),
		Telemetry:       o.Telemetry,
	}
	if !serial {
		cfg.PreemptionBound = o.bound()
		cfg.ContinueOnFailure = o.MaxFailures > 0
		cfg.Reduction = o.Reduction
	}
	return cfg
}

// OptionsError reports an illegal combination of Options: Field names the
// option that cannot be honored and Reason says why. Every phase-2 entry
// point refuses such a combination before running any execution.
type OptionsError struct {
	Field  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("core: invalid options: %s: %s", e.Field, e.Reason)
}

// validate owns core's cross-option rules. haveSpec says whether a phase-1
// specification is available to phase 2 (it is not under CheckWithMonitor);
// dist says whether the check is split into work units.
func (o Options) validate(haveSpec, dist bool) error {
	usesModel := o.WitnessSearch == WitnessMonitor
	switch {
	case o.Consistency != Linearizability && usesModel:
		return &OptionsError{"Consistency", fmt.Sprintf("%s consistency requires the spec-lookup witness backend", o.Consistency)}
	case o.Consistency != Linearizability && !haveSpec:
		return &OptionsError{"Consistency", fmt.Sprintf("%s consistency requires a phase-1 specification", o.Consistency)}
	case usesModel && o.MonitorModel == nil:
		return &OptionsError{"MonitorModel", "the monitor witness backend requires a model"}
	case !usesModel && !haveSpec:
		return &OptionsError{"WitnessSearch", "the spec-lookup witness backend requires a synthesized specification"}
	case dist && o.SampleSchedules > 0:
		return &OptionsError{"SampleSchedules", "schedule sampling cannot be distributed (units are DFS subtrees)"}
	case o.DetectLeaks && o.Workers > 1:
		return &OptionsError{"DetectLeaks", "leak detection counts the goroutines of the whole process and needs executions to run one at a time (Workers 0 or 1)"}
	}
	return nil
}

// exploreWorkers resolves Workers for an exhaustive phase-2 exploration: an
// explicit count stands, and 0 is one worker per CPU the process may use —
// more workers than CPUs only add switching — or one when DetectLeaks needs
// executions to run one at a time.
func (o Options) exploreWorkers() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.DetectLeaks:
		return 1
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func (o Options) bound() int {
	switch o.PreemptionBound {
	case 0:
		return DefaultBound
	case NoPreemptions:
		return 0
	default:
		return o.PreemptionBound
	}
}

func (o Options) maxExecs() int {
	if o.MaxExecutionsPerPhase == 0 {
		return 2000000
	}
	return o.MaxExecutionsPerPhase
}

// Verdict is the outcome of a check.
type Verdict int

const (
	// Pass means no violation of deterministic linearizability was found for
	// this test (Check returned PASS).
	Pass Verdict = iota
	// Fail means the implementation is not linearizable with respect to any
	// deterministic sequential specification (Theorem 5).
	Fail
)

func (v Verdict) String() string {
	if v == Pass {
		return "PASS"
	}
	return "FAIL"
}

// ViolationKind classifies how the check failed.
type ViolationKind int

const (
	// Nondeterminism: phase 1 observed two serial histories whose longest
	// common prefix ends in a call (line 4 of Fig. 5).
	Nondeterminism ViolationKind = iota
	// NoWitness: phase 2 observed a complete concurrent history with no
	// serial witness in the synthesized specification (line 8 of Fig. 5).
	NoWitness
	// StuckNoWitness: phase 2 observed a stuck history one of whose pending
	// operations has no stuck serial witness (line 13 of Fig. 5).
	StuckNoWitness
)

func (k ViolationKind) String() string {
	switch k {
	case Nondeterminism:
		return "nondeterministic serial behavior"
	case NoWitness:
		return "concurrent history with no serial witness"
	case StuckNoWitness:
		return "stuck history with no stuck serial witness"
	default:
		return "unknown violation"
	}
}

// Violation describes a failed check; any violation is a proof that the
// implementation is not deterministically linearizable.
type Violation struct {
	Kind    ViolationKind
	Test    *Test
	Nondet  *history.NondetWitness // Nondeterminism only
	History *history.History       // NoWitness and StuckNoWitness
	Pending *history.Op            // StuckNoWitness: the unjustified pending operation
}

// String renders a report in the spirit of Fig. 7 (bottom).
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Line-Up encountered a violation: %s\n", v.Kind)
	fmt.Fprintf(&b, "test:\n%s", v.Test.String())
	switch v.Kind {
	case Nondeterminism:
		fmt.Fprintf(&b, "%s\n", v.Nondet)
	default:
		fmt.Fprintf(&b, "history:\n%s", v.History.String())
		if v.Pending != nil {
			fmt.Fprintf(&b, "pending operation with no stuck serial witness: %s\n", v.Pending)
		}
	}
	return b.String()
}

// PhaseStats are per-phase measurements matching the columns of Table 2.
type PhaseStats struct {
	Executions int           // schedules explored
	Decisions  int           // scheduling decisions taken
	Histories  int           // distinct full histories observed
	Stuck      int           // distinct stuck histories observed
	Pruned     int           // branches skipped by partial-order reduction
	DedupHits  int           // executions answered by the history cache
	Duration   time.Duration // wall-clock time of the phase
}

// Result is the outcome of Check on one test.
type Result struct {
	Subject *Subject
	Test    *Test
	Verdict Verdict
	// Violation is non-nil iff Verdict == Fail. A result restored from a
	// checkpoint keeps Violation nil even when failed; RandomCheck re-runs
	// the first failing test to regenerate the full report.
	Violation *Violation
	Phase1    PhaseStats
	Phase2    PhaseStats
	// Failures are the contained runtime failures phase 2 recorded (only
	// with Options.MaxFailures > 0), in sequential exploration order. A
	// failed execution contributes no history, so it never produces a
	// violation; it is reported here instead.
	Failures []RuntimeFailure
	// Spec is the specification synthesized in phase 1 (nil unless
	// Options.KeepSpec).
	Spec *history.Spec
}

// Check implements the two-phase function Check(X, m) of Fig. 5. Phase 1
// enumerates all serial executions of the test (without preemption
// bounding) and synthesizes the candidate deterministic specification;
// phase 2 enumerates concurrent executions under the preemption bound and
// checks every complete history for a serial witness and every stuck
// history for stuck serial witnesses. A FAIL result proves that the subject
// is not linearizable with respect to any deterministic sequential
// specification (Theorem 5); PASS is sound only with respect to this test
// and the explored schedules (Theorem 6 and the bounding caveat of
// Section 4.3).
func Check(sub *Subject, m *Test, opts Options) (*Result, error) {
	// Refuse an illegal combination before paying for phase 1.
	if err := opts.validate(true, false); err != nil {
		return nil, err
	}
	spec, p1, err := SynthesizeSpec(sub, m, opts)
	if err != nil {
		return nil, err
	}
	res, err := phase2(sub, m, spec, opts, modeGeneralized)
	if err != nil {
		return nil, err
	}
	res.Phase1 = p1
	return res, nil
}
