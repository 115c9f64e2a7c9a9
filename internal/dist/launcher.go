package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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

	// cfg and phase1 are the Config the unit is leased under and its plan's
	// phase-1 specification, set by Run for the launchers of this package.
	// They do not travel: a job file writes the check down (checkForm).
	cfg    *Config
	phase1 *history.Spec
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
// process isolation. Like ExecLauncher it runs units leased by dist.Run only:
// the check, and the plan's specification it is checked against, come with
// the lease and need no copying here. Heartbeats piggyback on the
// per-execution tick, rate-limited to spec.HeartbeatEvery, and a revoked lease
// is noticed at the next execution boundary. An operation that hangs *inside*
// an execution can only be reclaimed by Options.Watchdog (process-level
// SIGKILL needs ExecLauncher); see DESIGN.md §6.
type InProcLauncher struct{}

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
	cfg := spec.cfg
	return core.CheckUnit(cfg.Subject, cfg.Test, cfg.Options, spec.Unit, spec.phase1, tick)
}

// ExecLauncher runs each unit in a separate worker process ("<bin> worker
// <jobfile>", which is how `lineup check -test -exec` runs a test) over local
// exec: the robustness configuration, where a worker can be kill -9'd, can
// panic, or can hang without taking the coordinator down. The wire protocol is
// deliberately dumb: the job — the check of the Config the launcher is run
// under, written down, plus the unit — travels as a JSON file, heartbeats are
// "hb" lines on the worker's stdout, and the report comes back through an
// atomically-written file. It runs units leased by dist.Run only: the check
// comes with the lease.
type ExecLauncher struct {
	// Bin is the lineup binary to exec.
	Bin string
	// Dir holds job and report files (required).
	Dir string
}

func (l *ExecLauncher) Run(ctx context.Context, spec UnitSpec, heartbeat func()) (*core.UnitReport, error) {
	jobPath := fmt.Sprintf("%s/job-%06d-%d.json", l.Dir, spec.Seq, spec.Attempt)
	repPath := jobPath + ".report"
	// The plan's (determinism-checked) specification rides along: the one the
	// run was given, or the coordinator's phase-1 synthesis. A worker checks
	// against it and synthesizes none of its own.
	job := WorkerJob{Version: jobVersion, checkForm: formOf(spec.cfg), Spec: spec, ReportPath: repPath,
		SpecHistories: spec.phase1.Export()}
	if err := obsfile.AtomicWriteJSON(jobPath, job); err != nil {
		return nil, fmt.Errorf("dist: writing job file: %w", err)
	}
	cmd := exec.CommandContext(ctx, l.Bin, "worker", jobPath)
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
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == "hb" {
			heartbeat()
		}
	}
	if werr := cmd.Wait(); werr != nil {
		return nil, fmt.Errorf("dist: worker for unit %d (attempt %d): %w; stderr: %s",
			spec.Seq, spec.Attempt, werr, strings.TrimSpace(stderr.String()))
	}
	rep, err := loadReport(repPath)
	if err != nil {
		return nil, fmt.Errorf("dist: worker for unit %d exited cleanly but its report is unreadable: %w", spec.Seq, err)
	}
	return rep, nil
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
