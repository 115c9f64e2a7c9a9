package lineup

import (
	"context"
	"io"
	"math/rand"

	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/sched"
	"lineup/internal/serve"
	"lineup/internal/telemetry"
)

// Core vocabulary, re-exported from the implementation packages so that
// library users program against the stable top-level API.
type (
	// Thread is the handle of a logical thread under the deterministic
	// scheduler; every instrumented operation takes the current *Thread.
	Thread = sched.Thread
	// Op is one invocation of the object under test.
	Op = core.Op
	// Test is a finite test: a matrix of invocations with optional initial
	// and final sequences (Sections 3.1 and 4.3).
	Test = core.Test
	// Subject is an implementation under test.
	Subject = core.Subject
	// Options configures Check.
	Options = core.Options
	// RefOptions configures CheckAgainstModel.
	RefOptions = core.RefOptions
	// AutoOptions configures AutoCheck.
	AutoOptions = core.AutoOptions
	// RandomOptions configures RandomCheck.
	RandomOptions = core.RandomOptions
	// Result is the outcome of a check.
	Result = core.Result
	// RandomSummary aggregates a RandomCheck run.
	RandomSummary = core.RandomSummary
	// AutoResult is the outcome of a bounded AutoCheck run.
	AutoResult = core.AutoResult
	// Violation describes a failed check.
	Violation = core.Violation
	// Verdict is Pass or Fail.
	Verdict = core.Verdict
	// ViolationKind classifies a violation.
	ViolationKind = core.ViolationKind
	// PhaseStats carries per-phase measurements.
	PhaseStats = core.PhaseStats
	// ShardProgress is a progress snapshot of a check's phase-2 exploration;
	// Options.ShardProgress receives one after every shard event (there is
	// more than one shard once the exploration is shared among workers).
	ShardProgress = sched.ShardProgress
	// FailureKind classifies a contained runtime failure (panic/hung/leak).
	FailureKind = sched.FailureKind
	// RuntimeFailure is one contained execution failure recorded in
	// Result.Failures when Options.MaxFailures > 0.
	RuntimeFailure = core.RuntimeFailure
	// TooManyFailuresError aborts a check whose contained failures exceeded
	// Options.MaxFailures.
	TooManyFailuresError = core.TooManyFailuresError
	// BudgetError aborts a check whose phase 1 or phase 2 reached
	// Options.MaxExecutionsPerPhase; it names the phase.
	BudgetError = core.BudgetError
	// RandomCheckpoint is the resumable on-disk state of a RandomCheck run
	// (RandomOptions.Checkpoint / RandomOptions.Resume).
	RandomCheckpoint = core.RandomCheckpoint
	// TestCheckpoint is the per-test record inside a RandomCheckpoint.
	TestCheckpoint = core.TestCheckpoint
	// Reduction selects the partial-order reduction strategy of
	// Options.Reduction; verdicts and violations are bit-identical with
	// reduction on and off, only the schedule counts drop.
	Reduction = sched.Reduction
	// Telemetry collects low-overhead counters, phase spans, and an event
	// trace from a run when assigned to Options.Telemetry (see package
	// telemetry). It is observe-only: enabling it cannot change any verdict
	// or statistic reported in Result.
	Telemetry = telemetry.Collector
	// TelemetrySnap is a moment-in-time copy of the telemetry counters by
	// name ("executions_done", ...); a counter that is zero is absent.
	TelemetrySnap = telemetry.Snap
)

// NewTelemetry creates an empty telemetry collector; assign it to
// Options.Telemetry (one collector may be shared across tests and phases)
// and read it with Snapshot, Spans, or WriteTrace when the run completes.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Failure kinds for RuntimeFailure.Kind and Outcome classification.
const (
	// FailNone means the execution suffered no runtime failure.
	FailNone = sched.FailNone
	// FailPanic means implementation code panicked.
	FailPanic = sched.FailPanic
	// FailHung means the watchdog abandoned a non-cooperating execution.
	FailHung = sched.FailHung
	// FailLeak means goroutines escaped the scheduler and outlived the
	// execution.
	FailLeak = sched.FailLeak
)

// Verdicts.
const (
	// Pass means no violation was found for the test.
	Pass = core.Pass
	// Fail proves the subject is not deterministically linearizable.
	Fail = core.Fail
)

// Violation kinds.
const (
	// Nondeterminism: two serial histories diverge after a call (phase 1).
	Nondeterminism = core.Nondeterminism
	// NoWitness: a complete concurrent history has no serial witness.
	NoWitness = core.NoWitness
	// StuckNoWitness: a stuck history has an unjustified pending operation.
	StuckNoWitness = core.StuckNoWitness
)

// Preemption-bound sentinels for Options.PreemptionBound.
const (
	// DefaultBound is the paper's CHESS default of two preemptions.
	DefaultBound = core.DefaultBound
	// Unbounded disables preemption bounding.
	Unbounded = core.Unbounded
	// NoPreemptions allows only voluntary context switches.
	NoPreemptions = core.NoPreemptions
)

// Reduction strategies for Options.Reduction.
const (
	// ReductionNone explores the full preemption-bounded schedule tree.
	ReductionNone = sched.ReductionNone
	// ReductionSleep prunes redundant interleavings with sleep sets.
	ReductionSleep = sched.ReductionSleep
)

// ParseReduction parses the CLI spelling ("none" or "sleep") of a reduction
// strategy.
func ParseReduction(s string) (Reduction, error) { return sched.ParseReduction(s) }

// Check runs the two-phase Check(X, m) of Fig. 5 on one test.
func Check(sub *Subject, m *Test, opts Options) (*Result, error) {
	return core.Check(sub, m, opts)
}

// CheckAgainstModel synthesizes the specification from a reference model
// (phase 1) and checks the implementation's concurrent executions against
// it (phase 2); RefOptions.ClassicOnly selects the original Definition 1
// instead of the blocking-aware Definition 3.
func CheckAgainstModel(impl, model *Subject, m *Test, opts RefOptions) (*Result, error) {
	return core.CheckAgainstModel(impl, model, m, opts)
}

// AutoCheck enumerates tests systematically (Fig. 6), bounded by opts.
func AutoCheck(sub *Subject, opts AutoOptions) (*AutoResult, error) {
	return core.AutoCheck(sub, opts)
}

// RandomCheck samples random test matrices (Fig. 8), the evaluation mode of
// the paper.
func RandomCheck(sub *Subject, universe []Op, opts RandomOptions) (*RandomSummary, error) {
	return core.RandomCheck(sub, universe, opts)
}

// Shrink minimizes a failing test to a 1-minimal failing matrix.
func Shrink(sub *Subject, m *Test, opts Options) (*Test, *Result, error) {
	return core.Shrink(sub, m, opts)
}

// Monitor vocabulary, re-exported from internal/monitor: the standalone
// witness search over recorded histories (Section 4 generalized to traces
// captured outside the deterministic scheduler).
type (
	// History is a recorded concurrent history of calls and returns.
	History = history.History
	// Model is an executable sequential specification for the monitor.
	Model = monitor.Model
	// MonitorOptions configures CheckHistory.
	MonitorOptions = monitor.Options
	// MonitorMode selects classic (Def. 1) or generalized (Def. 3) checking.
	MonitorMode = monitor.Mode
	// MonitorOutcome is the verdict of a monitor run, with search statistics
	// and, when linearizable, a serial witness.
	MonitorOutcome = monitor.Outcome
	// WitnessStep is one operation of a serial witness.
	WitnessStep = monitor.WitnessStep
	// WitnessSearch selects the phase-2 witness backend of Options.
	WitnessSearch = core.WitnessSearch
)

// Monitor modes.
const (
	// MonitorAuto picks the definition from the history's shape.
	MonitorAuto = monitor.ModeAuto
	// MonitorClassic forces Definition 1 (pending ops may be dropped).
	MonitorClassic = monitor.ModeClassic
	// MonitorGeneralized forces Definition 3 (pending ops must be justified).
	MonitorGeneralized = monitor.ModeGeneralized
)

// Witness-search backends for Options.WitnessSearch.
const (
	// WitnessSpec answers witness queries from the phase-1 serial history set.
	WitnessSpec = core.WitnessSpec
	// WitnessMonitor answers them by replaying Options.MonitorModel.
	WitnessMonitor = core.WitnessMonitor
)

// CheckHistory decides whether one recorded history is linearizable with
// respect to the executable model, with no schedule exploration.
func CheckHistory(m *Model, h *History, opts MonitorOptions) (*MonitorOutcome, error) {
	return monitor.Check(m, h, opts)
}

// CheckWithMonitor is CheckAgainstModel with the phase-2 witness queries
// answered by the executable model instead of phase-1 enumeration.
func CheckWithMonitor(sub *Subject, model *Model, m *Test, opts RefOptions) (*Result, error) {
	return core.CheckWithMonitor(sub, model, m, opts)
}

// BuiltinModel looks up a named executable model (queue, stack, set,
// register, counter, mre); ok is false for unknown names.
func BuiltinModel(name string) (*Model, bool) { return monitor.Builtin(name) }

// BuiltinModelNames lists the registered executable models.
func BuiltinModelNames() []string { return monitor.BuiltinNames() }

// ReadTrace parses the JSONL history-trace format of `lineup monitor`:
// one {"t":thread,"k":"call"|"ret"|"stuck","op":...,"res":...} object per
// line, "#" comment lines allowed.
func ReadTrace(r io.Reader) (*History, error) { return obsfile.ReadTrace(r) }

// WriteTrace writes the history in the JSONL history-trace format.
func WriteTrace(w io.Writer, h *History) error { return obsfile.WriteTrace(w, h) }

// WriteTraceFile writes the history to path atomically (temp file + rename):
// a crash mid-write never leaves a torn trace behind.
func WriteTraceFile(path string, h *History) error { return obsfile.WriteTraceFile(path, h) }

// LoadRandomCheckpoint reads a checkpoint written via
// RandomOptions.Checkpoint and RandomCheckpoint.Save.
func LoadRandomCheckpoint(path string) (*RandomCheckpoint, error) {
	return core.LoadRandomCheckpoint(path)
}

// Relaxed-consistency and coverage-guided-generation vocabulary, re-exported
// from internal/core.
type (
	// Consistency selects the correctness criterion of Options.Consistency:
	// strict linearizability (default) or one of the relaxations checked
	// against the same phase-1 specification.
	Consistency = core.Consistency
	// Coverage accumulates the exploration-coverage signal — distinct
	// (memory-kind, location) pairs and distinct phase-2 canonical histories
	// — across checks when assigned to Options.Coverage.
	Coverage = core.Coverage
	// GenOptions configures Generate.
	GenOptions = core.GenOptions
	// GenResult is the outcome of a Generate run.
	GenResult = core.GenResult
	// Mutator applies seeded random matrix mutations (op replacement, swaps,
	// insertion/deletion, argument perturbation, thread reshaping).
	Mutator = core.Mutator
)

// Consistency criteria for Options.Consistency.
const (
	// Linearizability is the strict criterion of the paper.
	Linearizability = core.Linearizability
	// SequentialConsistency only requires a serial witness over some
	// reordering that preserves per-thread order.
	SequentialConsistency = core.SequentialConsistency
	// QuiescentConsistency only requires the order of operations separated
	// by a quiescent point to be preserved.
	QuiescentConsistency = core.QuiescentConsistency
)

// ParseConsistency parses the CLI spelling of a consistency criterion
// ("linearizable", "sequential"/"sc", "quiescent"/"qc").
func ParseConsistency(s string) (Consistency, error) { return core.ParseConsistency(s) }

// NewCoverage creates an empty coverage accumulator for Options.Coverage.
func NewCoverage() *Coverage { return core.NewCoverage() }

// Generate runs coverage-guided test generation: starting from the smallest
// pairwise tests over the subject's invocation universe, it mutates corpus
// entries with a seeded RNG and keeps every mutant whose check touches a new
// (memory-kind, location) pair or produces a new phase-2 history, until a
// violation is found or the budget is exhausted. Same seed, same subject,
// same options — bit-identical run.
func Generate(sub *Subject, opts GenOptions) (*GenResult, error) {
	return core.Generate(sub, opts)
}

// NewMutator creates a seeded matrix mutator over an invocation universe;
// Generate uses one internally, and tests can drive it directly.
func NewMutator(universe []Op, maxRows, maxCols int, rng *rand.Rand) *Mutator {
	return core.NewMutator(universe, maxRows, maxCols, rng)
}

// TestFromNames rebuilds a test from its written form — what json.Unmarshal
// reads into a Test, e.g. from a corpus file of GenOptions.CorpusDir: display
// names only — resolving each name in the subject's universe.
func TestFromNames(sub *Subject, names *Test) (*Test, error) {
	return core.TestFromNames(sub, names)
}

// Streaming-service vocabulary, re-exported from internal/serve and the
// streaming half of internal/obsfile: a long-running monitor that ingests
// live JSONL history events, routes them by partition key to a worker pool,
// and checks each partition incrementally in bounded memory, with verdicts
// identical to batch CheckHistory on the same trace.
type (
	// StreamEvent is one validated, partition-resolved event of a live
	// JSONL history stream.
	StreamEvent = obsfile.StreamEvent
	// StreamReader incrementally parses and validates a JSONL history
	// stream event by event, in constant memory.
	StreamReader = obsfile.StreamReader
	// Incremental checks a single partition window by window: the batch
	// witness search, started from the full frontier of witness states.
	Incremental = monitor.Incremental
	// ServeConfig configures NewServer.
	ServeConfig = serve.Config
	// ServeServer is the running streaming-monitoring service.
	ServeServer = serve.Server
	// ServeStats is a live counter snapshot of a ServeServer.
	ServeStats = serve.Stats
	// ServeSummary is the final report of a drained ServeServer.
	ServeSummary = serve.Summary
	// PartitionVerdict is one partition's judgment.
	PartitionVerdict = serve.PartitionVerdict
	// ServeCheckpoint is the resumable on-disk state of a ServeServer
	// (ServeConfig.CheckpointPath / ResumeServer).
	ServeCheckpoint = serve.Checkpoint
	// Backpressure selects the full-queue policy of ServeConfig.
	Backpressure = serve.Backpressure
	// DistConfig configures RunDist.
	DistConfig = dist.Config
	// DistStats counts the fault-tolerance activity of a RunDist call:
	// units done/resumed/poisoned, leases granted/expired, retries, stale
	// deliveries, and worker failures absorbed.
	DistStats = dist.Stats
	// DistLauncher executes one leased work unit; the coordinator is
	// transport-agnostic behind this seam (in-process goroutines and local
	// worker processes ship; multi-machine transports plug in here).
	DistLauncher = dist.Launcher
	// DistUnitSpec is the job a DistLauncher receives: the work unit plus
	// its lease sequence, attempt number, and heartbeat cadence.
	DistUnitSpec = dist.UnitSpec
	// DistInProcLauncher runs work units on goroutines in this process.
	DistInProcLauncher = dist.InProcLauncher
	// DistExecLauncher runs each work unit in a fresh worker process so a
	// kill -9 of a worker costs one lease, not the run. The check it hands
	// its workers is the DistConfig it is run under.
	DistExecLauncher = dist.ExecLauncher
	// PoisonedUnit records one work unit that exhausted its retry budget.
	PoisonedUnit = dist.PoisonedUnit
	// PoisonedUnitsError is returned by RunDist when some units exhausted
	// their retry budget; it carries the partial stats over completed units.
	PoisonedUnitsError = dist.PoisonedUnitsError
)

// Backpressure policies for ServeConfig.Backpressure.
const (
	// BlockOnFull stalls the producer until the worker catches up.
	BlockOnFull = serve.BlockOnFull
	// ShedOnFull drops what a full queue rejects (one event from Ingest, a
	// sub-batch from IngestBatch) and poisons its partitions: their verdicts
	// are withheld rather than silently computed on a gapped history.
	ShedOnFull = serve.ShedOnFull
)

// ParseBackpressure parses the CLI spelling ("block" or "shed") of a
// backpressure policy.
func ParseBackpressure(s string) (Backpressure, error) {
	var b Backpressure
	err := b.UnmarshalText([]byte(s))
	return b, err
}

// NewStreamReader wraps a live JSONL history stream (a pipe, a socket) for
// incremental event-by-event reading; errors are sticky and agree exactly
// with batch ReadTrace on the same bytes.
func NewStreamReader(r io.Reader) *StreamReader { return obsfile.NewStreamReader(r) }

// NewIncremental creates a windowed incremental checker for one partition's
// event stream; feed it quiescent windows with ExtendComplete and judge the
// residual with Finish.
func NewIncremental(m *Model, opts MonitorOptions) (*Incremental, error) {
	return monitor.NewIncremental(m, opts)
}

// NewServer starts the streaming monitoring service ('lineup serve' as a
// library): Ingest events as they happen (one batch path underneath; Ingest
// is a batch of one), read Verdicts live, Close for the final summary.
func NewServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// RunDist runs fault-tolerant distributed phase-2 exploration ('lineup dist'
// as a library): the schedule tree is split into work units, leased to
// workers with heartbeat-renewed deadlines, and merged into a result
// bit-identical to the sequential check regardless of worker count, kill
// schedule, or lease reassignment. With DistConfig.Dir set, the run journals
// progress and survives a coordinator kill -9 via a later RunDist on the
// same directory.
func RunDist(ctx context.Context, cfg DistConfig) (*Result, DistStats, error) {
	return dist.Run(ctx, cfg)
}

// ResumeServer loads cfg.CheckpointPath and returns a config that resumes
// the checkpointed run: pass it to NewServer, then replay the stream from
// the beginning — the first ServeConfig.SkipEvents already-checked events
// are skipped.
func ResumeServer(cfg ServeConfig) (ServeConfig, error) { return serve.Resume(cfg) }

// LoadServeCheckpoint reads a service checkpoint written via
// ServeConfig.CheckpointPath.
func LoadServeCheckpoint(path string) (*ServeCheckpoint, error) { return serve.Load(path) }
