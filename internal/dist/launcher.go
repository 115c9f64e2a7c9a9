package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/obsfile"
	"lineup/internal/sched"
)

// UnitSpec identifies one leased run of a work unit.
type UnitSpec struct {
	// Seq is the unit's sequence number; Attempt the 1-based lease count for
	// it. Together they let the coordinator discard deliveries from
	// superseded leases.
	Seq     int            `json:"seq"`
	Attempt int            `json:"attempt"`
	Unit    sched.WorkUnit `json:"unit"`
	// HeartbeatEvery is how often the worker should call the heartbeat
	// callback (the coordinator sets it to a quarter of the lease length, so
	// a healthy worker renews several times per lease).
	HeartbeatEvery time.Duration `json:"heartbeat_every"`
}

// Launcher runs one leased work unit to completion. Run must return promptly
// after ctx is cancelled (the lease was revoked); whatever it returns then is
// discarded by the coordinator. heartbeat may be called from any goroutine
// and never blocks.
type Launcher interface {
	Run(ctx context.Context, spec UnitSpec, heartbeat func()) (*core.UnitReport, error)
}

// InProcLauncher runs units on goroutines in the coordinator's process —
// the zero-setup launcher for tests and single-machine runs that don't need
// process isolation. Heartbeats piggyback on the per-execution tick,
// rate-limited to spec.HeartbeatEvery, and a revoked lease is noticed at the
// next execution boundary. An operation that hangs *inside* an execution can
// only be reclaimed by Options.Watchdog (process-level SIGKILL needs
// ExecLauncher); see DESIGN.md §6.
type InProcLauncher struct {
	Subject *core.Subject
	Test    *core.Test
	Options core.Options
}

func (l *InProcLauncher) Run(ctx context.Context, spec UnitSpec, heartbeat func()) (*core.UnitReport, error) {
	heartbeat()
	last := time.Now()
	tick := func() bool {
		if ctx.Err() != nil {
			return false
		}
		if time.Since(last) >= spec.HeartbeatEvery {
			heartbeat()
			last = time.Now()
		}
		return true
	}
	return core.CheckUnit(l.Subject, l.Test, l.Options, spec.Unit, tick)
}

// ExecLauncher runs each unit in a separate worker process ("<bin> dist
// -worker <jobfile>") over local exec: the real robustness configuration,
// where a worker can be kill -9'd, can panic, or can hang without taking the
// coordinator down. The wire protocol is deliberately dumb: the job travels
// as a JSON file, heartbeats are "hb" lines on the worker's stdout, and the
// report comes back through an atomically-written file.
type ExecLauncher struct {
	// Bin is the lineup binary to exec.
	Bin string
	// Dir holds job and report files (required).
	Dir string
	// Subject names the class the worker should resolve; code never travels,
	// only the name (plus, optionally, the Spec below).
	Subject string
	// Test is the test matrix as rows of invocation display names.
	Test [][]string
	// Options is the serializable option subset workers need.
	Options WorkerOptions
	// KillUnit, when >= 0, SIGKILLs the worker for that unit's first attempt
	// right after its first heartbeat — the built-in worker-kill fault
	// injection the dist smoke test and EXPERIMENTS rows use. The retry
	// machinery must recover and the merged result must not change.
	KillUnit int
	// Env appends extra environment variables to workers.
	Env []string
	// Spec, when non-nil, is the coordinator's synthesized phase-1
	// specification, shipped inside every job file so workers skip the
	// per-unit re-synthesis (the dominant cost of small units). Phase 1 is
	// deterministic, so shipping it cannot change any report.
	Spec *history.Spec
}

func (l *ExecLauncher) Run(ctx context.Context, spec UnitSpec, heartbeat func()) (*core.UnitReport, error) {
	jobPath := fmt.Sprintf("%s/job-%06d-%d.json", l.Dir, spec.Seq, spec.Attempt)
	repPath := jobPath + ".report"
	job := WorkerJob{
		Subject:    l.Subject,
		Test:       l.Test,
		Options:    l.Options,
		Spec:       spec,
		ReportPath: repPath,
	}
	if l.Spec != nil {
		job.SpecHistories = l.Spec.Export()
	}
	data, err := json.MarshalIndent(job, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(jobPath, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("dist: writing job file: %w", err)
	}
	cmd := exec.CommandContext(ctx, l.Bin, "dist", "-worker", jobPath)
	cmd.Env = append(os.Environ(), l.Env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Cancel = func() error { return cmd.Process.Kill() } // lease revoked: kill -9
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: starting worker: %w", err)
	}
	kill, killed := l.KillUnit == spec.Seq && spec.Attempt == 1, false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		switch sc.Text() {
		case "hb":
			heartbeat()
			if kill {
				kill = false
				killed = true
				cmd.Process.Kill()
			}
		case "done":
		}
	}
	werr := cmd.Wait()
	if werr == nil && killed {
		// A small unit can finish between its heartbeat and the signal; the
		// injected fault costs the lease all the same.
		werr = errors.New("finished before the injected kill arrived")
	}
	if werr != nil {
		return nil, fmt.Errorf("dist: worker for unit %d (attempt %d): %w; stderr: %s",
			spec.Seq, spec.Attempt, werr, strings.TrimSpace(stderr.String()))
	}
	rep, err := loadReport(repPath)
	if err != nil {
		return nil, fmt.Errorf("dist: worker for unit %d exited cleanly but its report is unreadable: %w", spec.Seq, err)
	}
	return rep, nil
}

// WorkerOptions is the serializable subset of core.Options a worker needs to
// reproduce the coordinator's configuration exactly. (Unserializable knobs —
// telemetry, coverage, progress — stay coordinator-side.)
type WorkerOptions struct {
	PreemptionBound       int           `json:"preemption_bound,omitempty"`
	MaxExecutionsPerPhase int           `json:"max_executions_per_phase,omitempty"`
	MaxFailures           int           `json:"max_failures,omitempty"`
	Reduction             string        `json:"reduction,omitempty"`
	Consistency           string        `json:"consistency,omitempty"`
	RelaxedOps            []string      `json:"relaxed_ops,omitempty"`
	Watchdog              time.Duration `json:"watchdog,omitempty"`
}

// ToOptions expands the wire form back into core.Options.
func (w WorkerOptions) ToOptions() (core.Options, error) {
	opts := core.Options{
		PreemptionBound:       w.PreemptionBound,
		MaxExecutionsPerPhase: w.MaxExecutionsPerPhase,
		MaxFailures:           w.MaxFailures,
		RelaxedOps:            w.RelaxedOps,
		Watchdog:              w.Watchdog,
	}
	if w.Reduction != "" {
		red, err := sched.ParseReduction(w.Reduction)
		if err != nil {
			return opts, err
		}
		opts.Reduction = red
	}
	if w.Consistency != "" {
		cons, err := core.ParseConsistency(w.Consistency)
		if err != nil {
			return opts, err
		}
		opts.Consistency = cons
	}
	return opts, nil
}

// OptionsToWorker extracts the serializable subset of opts for the wire.
func OptionsToWorker(opts core.Options) WorkerOptions {
	w := WorkerOptions{
		PreemptionBound:       opts.PreemptionBound,
		MaxExecutionsPerPhase: opts.MaxExecutionsPerPhase,
		MaxFailures:           opts.MaxFailures,
		RelaxedOps:            opts.RelaxedOps,
		Watchdog:              opts.Watchdog,
	}
	if opts.Reduction != sched.ReductionNone {
		w.Reduction = opts.Reduction.String()
	}
	if opts.Consistency != core.Linearizability {
		w.Consistency = opts.Consistency.String()
	}
	return w
}

func loadReport(path string) (*core.UnitReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep core.UnitReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("dist: parsing report %s: %w", path, err)
	}
	return &rep, nil
}

func saveReport(path string, rep *core.UnitReport) error {
	return atomicWriteJSON(path, rep)
}

// atomicWriteJSON journals v through obsfile's temp+fsync+rename path, so a
// crash at any instant leaves either the previous file or the new one.
func atomicWriteJSON(path string, v any) error {
	return obsfile.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
