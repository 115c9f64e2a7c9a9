package dist

import (
	"fmt"
	"io"
	"slices"
	"time"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/obsfile"
)

// jobVersion is the job-file format version. Version 2 carries the check in
// its written form (checkForm: every option, init and final sections) where
// the unversioned first format carried seven options and the rows. In version
// 3 a unit's path skips the decisions with no choice, and in version 4 every
// decision that cannot branch.
const jobVersion = 4

// WorkerJob is the file an ExecLauncher coordinator hands a worker process:
// the check written down, which is everything the worker needs to reproduce
// the coordinator's configuration, plus the unit.
type WorkerJob struct {
	Version int `json:"version"`
	checkForm
	Spec       UnitSpec `json:"spec"`
	ReportPath string   `json:"report_path"`
	// SpecHistories is the specification of the unit's plan in history.Spec
	// Export order; the worker rebuilds it and checks the unit against it. A
	// job without it, or with a null history in it, is refused.
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
	if len(job.SpecHistories) == 0 || slices.Contains(job.SpecHistories, nil) {
		return nil, fmt.Errorf("dist: job file %s holds no spec_histories to check the unit against, or a null one", path)
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
	rep, err := core.CheckUnit(sub, m, job.Options, job.Spec.Unit, history.ImportSpec(job.SpecHistories), tick)
	if err != nil {
		return err
	}
	if err := obsfile.AtomicWriteJSON(job.ReportPath, rep); err != nil {
		return err
	}
	fmt.Fprintln(out, "done")
	return nil
}
