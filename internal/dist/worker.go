package dist

import (
	"fmt"
	"io"
	"time"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/obsfile"
)

// jobVersion is the job-file format version. Version 2 carries the check in
// its written form (checkForm: every option, init and final sections) where
// the unversioned first format carried seven options and the rows.
const jobVersion = 2

// WorkerJob is the file an ExecLauncher coordinator hands a worker process:
// the check written down, which is everything the worker needs to reproduce
// the coordinator's configuration, plus the unit.
type WorkerJob struct {
	Version int `json:"version"`
	checkForm
	Spec       UnitSpec `json:"spec"`
	ReportPath string   `json:"report_path"`
	// SpecHistories, when present, is the coordinator's phase-1
	// specification in history.Spec Export order; the worker rebuilds the
	// spec from it instead of re-synthesizing. Absent (hand-written jobs),
	// the worker synthesizes locally.
	SpecHistories []*history.SerialHistory `json:"spec_histories,omitempty"`
}

// loadJob reads and decodes a job file.
func loadJob(path string) (*WorkerJob, error) {
	var job WorkerJob
	if err := core.LoadVersioned(path, "job file", jobVersion, &job); err != nil {
		return nil, err
	}
	if job.Test == nil {
		return nil, fmt.Errorf("dist: job file %s names no test", path)
	}
	return &job, nil
}

// RunWorker is the worker half of the exec protocol: it loads the job file,
// resolves the subject through the caller's registry and the test in the
// subject's universe, runs the unit, writes the report atomically, and prints
// "done". Heartbeats are "hb" lines on out, emitted from the per-execution
// tick at the job's heartbeat period. Exit discipline is the caller's: any
// error return should exit nonzero, and the coordinator treats both that and
// silence (kill -9, panic, hang) as a failed lease.
func RunWorker(jobPath string, resolve func(class string) (*core.Subject, bool), out io.Writer) error {
	job, err := loadJob(jobPath)
	if err != nil {
		return err
	}
	sub, ok := resolve(job.Subject)
	if !ok {
		return fmt.Errorf("dist: unknown class %q", job.Subject)
	}
	m, err := core.TestFromNames(sub, job.Test)
	if err != nil {
		return err
	}

	// Heartbeats ride the per-execution tick, rate-limited to the job's
	// period. The first beat goes out before exploration starts so the
	// coordinator sees a live worker even when the first execution is slow.
	beat := func() {
		fmt.Fprintln(out, "hb")
	}
	beat()
	last := time.Now()
	tick := func() bool {
		if time.Since(last) >= job.Spec.HeartbeatEvery {
			beat()
			last = time.Now()
		}
		return true
	}
	var spec *history.Spec
	if len(job.SpecHistories) > 0 {
		spec = history.ImportSpec(job.SpecHistories)
	}
	rep, err := core.CheckUnitWithSpec(sub, m, job.Options, job.Spec.Unit, spec, tick)
	if err != nil {
		return err
	}
	if err := obsfile.AtomicWriteJSON(job.ReportPath, rep); err != nil {
		return err
	}
	fmt.Fprintln(out, "done")
	return nil
}
