package main

import (
	"flag"
	"fmt"
	"os"

	"lineup/internal/obsfile"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// telemetryFlags bundles the observability flags shared by the long-running
// subcommands (check, table2, generate, dist, serve): a live progress line, a
// JSONL event-trace file, and an opt-in pprof/expvar HTTP endpoint. All three
// feed from one telemetry.Collector, created only when at least one sink is
// requested, so the default invocation carries no instrumentation at all.
type telemetryFlags struct {
	progress  *bool
	traceOut  *string
	pprofAddr *string
}

// addTelemetryFlags registers the shared flags on a subcommand's FlagSet.
func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	return &telemetryFlags{
		progress:  fs.Bool("progress", false, "render a live progress line (work units, throughput, ETA) on stderr"),
		traceOut:  fs.String("trace-out", "", "write a JSONL telemetry event trace to FILE (written atomically on completion)"),
		pprofAddr: fs.String("pprof", "", "serve pprof and /debug/vars on this address (e.g. localhost:6060) for the duration of the run"),
	}
}

// enabled reports whether any telemetry sink was requested.
func (f *telemetryFlags) enabled() bool {
	return *f.progress || *f.traceOut != "" || *f.pprofAddr != ""
}

// telemetryRun is one live telemetry session: the collector to thread into
// core/bench options (nil when telemetry is off — a valid no-op sink) and the
// optional progress line. Callers must call finish exactly once when the run
// ends, on error paths too.
type telemetryRun struct {
	C    *telemetry.Collector
	Prog *telemetry.Progress

	flags *telemetryFlags
	srv   *telemetry.Server
}

// start opens the requested sinks. When no telemetry flag was given the
// returned run has a nil collector and progress line, both safe to pass
// along unconditionally.
func (f *telemetryFlags) start(label string) (*telemetryRun, error) {
	r := &telemetryRun{flags: f}
	if !f.enabled() {
		return r, nil
	}
	r.C = telemetry.New()
	if *f.progress {
		r.Prog = telemetry.NewProgress(os.Stderr, r.C, label)
	}
	if *f.pprofAddr != "" {
		srv, err := telemetry.Serve(*f.pprofAddr, r.C)
		if err != nil {
			return nil, fmt.Errorf("starting pprof endpoint: %w", err)
		}
		r.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: pprof and /debug/vars on http://%s\n", srv.Addr)
	}
	return r, nil
}

// shardProgress returns a core.Options.ShardProgress callback that folds the
// parallel explorer's shard counters into the live line, or nil when no
// progress line was requested.
func (r *telemetryRun) shardProgress() func(sched.ShardProgress) {
	if r.Prog == nil {
		return nil
	}
	p := r.Prog
	return func(sp sched.ShardProgress) {
		p.SetExtra(fmt.Sprintf("shards %d/%d, %d splits", sp.Done, sp.Shards, sp.Splits))
		p.Tick()
	}
}

// finish terminates the progress line, stops the HTTP endpoint, and writes
// the event trace. The trace goes through obsfile.AtomicWriteFile, so an
// interrupted write never leaves a torn trace file behind.
func (r *telemetryRun) finish() error {
	r.Prog.Finish()
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.C != nil && *r.flags.traceOut != "" {
		if err := obsfile.AtomicWriteFile(*r.flags.traceOut, r.C.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote event trace to %s\n", *r.flags.traceOut)
	}
	return nil
}

// finishAfter merges a run's finish error into the command's primary error:
// the command error wins, a trace-write failure surfaces otherwise.
func (r *telemetryRun) finishAfter(err error) error {
	if ferr := r.finish(); err == nil {
		return ferr
	}
	return err
}
