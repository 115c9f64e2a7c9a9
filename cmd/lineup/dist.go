package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/dist"
)

// cmdDist runs one check's phase-2 exploration through the fault-tolerant
// coordinator: the schedule tree is split into work units, units are leased to
// workers under heartbeat-renewed deadlines, and the merged verdict is
// bit-identical to the sequential exhaustive check no matter how many workers
// ran, died, or were reassigned. With -dir the coordinator journals durable
// state, so a killed coordinator resumes without re-running (or re-counting)
// completed units. With -exec each unit runs in a separate worker process that
// can be kill -9'd without taking the run down.
//
// The same subcommand is also the worker half: "lineup dist -worker JOBFILE"
// runs one leased unit and is only ever spawned by an -exec coordinator.
func cmdDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	workerJob := fs.String("worker", "", "run as a worker process for JOBFILE (internal; spawned by -exec)")
	class := fs.String("class", "", "class name (see 'lineup list')")
	testSpec := fs.String("test", "", `test matrix, e.g. "Enqueue(10) TryDequeue() / Count()"`)
	var ro core.RandomOptions
	addCheckFlags(fs, &ro, "pb", "reduction", "max-failures", "watchdog")
	var cfg dist.Config
	fs.IntVar(&cfg.Workers, "workers", runtime.NumCPU(), "concurrent workers")
	fs.IntVar(&cfg.Depth, "depth", 2, "schedule-tree depth at which to split work units")
	fs.StringVar(&cfg.Dir, "dir", "", "durable coordination directory (journal + unit reports; enables resume)")
	fs.DurationVar(&cfg.Lease, "lease", 10*time.Second, "lease length; a worker silent this long is presumed dead")
	fs.IntVar(&cfg.MaxAttempts, "max-attempts", 3, "lease attempts per unit before it is poisoned")
	fs.DurationVar(&cfg.Backoff, "backoff", 25*time.Millisecond, "reassignment backoff after a failed lease (doubles per retry)")
	execMode := fs.Bool("exec", false, "run each unit in a separate worker process (kill -9 isolation)")
	killUnit := fs.Int("kill-worker", -1, "with -exec: SIGKILL the worker for unit N on its first attempt (fault injection)")
	tflags := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workerJob != "" {
		resolve := func(name string) (*core.Subject, bool) {
			sub, _, ok := findSubject(name)
			return sub, ok
		}
		return dist.RunWorker(*workerJob, resolve, os.Stdout)
	}

	if *class == "" || *testSpec == "" {
		return fmt.Errorf("dist: -class and -test are required (see 'lineup dist -h')")
	}
	sub, pb, ok := findSubject(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (try 'lineup list')", *class)
	}
	m, err := bench.ParseTest(sub, *testSpec)
	if err != nil {
		return err
	}
	if ro.PreemptionBound == 0 {
		ro.PreemptionBound = pb
	}
	tr, err := tflags.start("dist " + sub.Name)
	if err != nil {
		return err
	}
	ro.Telemetry = tr.C
	cfg.Subject, cfg.Test, cfg.Options, cfg.Telemetry = sub, m, ro.Options, tr.C
	if *execMode {
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		jobDir := cfg.Dir
		if jobDir == "" {
			jobDir, err = os.MkdirTemp("", "lineup-dist-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(jobDir)
		}
		cfg.Launcher = &dist.ExecLauncher{Bin: bin, Dir: jobDir, KillUnit: *killUnit}
	} else if *killUnit >= 0 {
		return fmt.Errorf("dist: -kill-worker requires -exec")
	}

	res, stats, err := dist.Run(context.Background(), cfg)
	// Lease traffic is timing-dependent, so everything but the verdict goes to
	// stderr; stdout stays deterministic for a given (class, test, flags).
	fmt.Fprintf(os.Stderr, "units: %d total, %d done, %d resumed, %d poisoned; leases: %d granted, %d expired, %d retries, %d stale, %d worker failures\n",
		stats.Units, stats.Done, stats.Resumed, stats.Poisoned,
		stats.LeasesGranted, stats.LeasesExpired, stats.Retries, stats.StaleReports, stats.WorkerFailures)
	if err = tr.finishAfter(err); err != nil {
		return err
	}
	fmt.Printf("verdict: %v (%d histories, %d stuck, %d schedules)\n",
		res.Verdict, res.Phase2.Histories, res.Phase2.Stuck, res.Phase2.Executions)
	if res.Violation != nil {
		fmt.Println(indent(res.Violation.String()))
		return errViolation
	}
	return nil
}
