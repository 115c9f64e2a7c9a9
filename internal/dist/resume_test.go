package dist_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// writtenOptionKeys lists the json names of every field of typ that has one,
// embedded structs included.
func writtenOptionKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			keys = append(keys, writtenOptionKeys(f.Type)...)
			continue
		}
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
			keys = append(keys, name)
		}
	}
	return keys
}

// TestResumeRefusesEveryOptionMismatch flips each written field of
// core.RandomOptions, one at a time, between saving and resuming — a `check`
// checkpoint (core.RandomCheck) and, for the fields core.Options has, a
// `dist` manifest (dist.Run with a Dir) — and requires the resume to be
// refused with that field named. The exceptions are the resume-free fields
// (both worker counts, the watchdog interval, KeepSpec), which must be
// accepted. The table is checked against the struct by reflection, so a new
// written option cannot land without its row.
func TestResumeRefusesEveryOptionMismatch(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	inc, _ := sub.FindOp("Inc()")
	get, _ := sub.FindOp("Get()")
	type R = core.RandomOptions
	// save configures the run that writes the file where the flipped run
	// would otherwise not be a legal configuration of its own; flip is the
	// one field changed for the resume.
	rows := map[string]struct {
		save, flip func(*R)
		free       bool
	}{
		"preemption_bound":         {flip: func(o *R) { o.PreemptionBound = 1 }},
		"granularity":              {flip: func(o *R) { o.Granularity = sched.GranSync }},
		"max_executions_per_phase": {flip: func(o *R) { o.MaxExecutionsPerPhase = 40000 }},
		"keep_spec":                {flip: func(o *R) { o.KeepSpec = true }, free: true},
		"exhaust_phase2":           {flip: func(o *R) { o.ExhaustPhase2 = true }},
		"relaxed_ops":              {flip: func(o *R) { o.RelaxedOps = []string{"Get()"} }},
		"consistency":              {flip: func(o *R) { o.Consistency = core.SequentialConsistency }},
		"sample_schedules":         {flip: func(o *R) { o.SampleSchedules = 50 }},
		"sample_strategy":          {flip: func(o *R) { o.SampleStrategy = sched.StrategyPCT }},
		"sample_seed":              {flip: func(o *R) { o.SampleSeed = 9 }},
		"pct_depth":                {flip: func(o *R) { o.PCTDepth = 5 }},
		"witness": {save: func(o *R) { o.MonitorModel = monitor.CounterModel() },
			flip: func(o *R) { o.WitnessSearch = core.WitnessMonitor }},
		"model": {save: func(o *R) { o.WitnessSearch, o.MonitorModel = core.WitnessMonitor, monitor.CounterModel() },
			flip: func(o *R) { o.MonitorModel = monitor.RegisterModel() }},
		"explore_workers":       {flip: func(o *R) { o.Options.Workers = 2 }, free: true},
		"watchdog":              {flip: func(o *R) { o.Watchdog = time.Minute }, free: true},
		"detect_leaks":          {flip: func(o *R) { o.DetectLeaks = true }},
		"reduction":             {flip: func(o *R) { o.Reduction = sched.ReductionSleep }},
		"max_failures":          {flip: func(o *R) { o.MaxFailures = 3 }},
		"rows":                  {flip: func(o *R) { o.Rows = 1 }},
		"cols":                  {flip: func(o *R) { o.Cols = 1 }},
		"samples":               {flip: func(o *R) { o.Samples = 3 }},
		"seed":                  {flip: func(o *R) { o.Seed = 99 }},
		"workers":               {flip: func(o *R) { o.Workers = 2 }, free: true},
		"stop_at_first_failure": {flip: func(o *R) { o.StopAtFirstFailure = true }},
		"init":                  {flip: func(o *R) { o.Init = []core.Op{inc} }},
		"final":                 {flip: func(o *R) { o.Final = []core.Op{get} }},
	}
	all := writtenOptionKeys(reflect.TypeOf(R{}))
	for _, key := range all {
		if _, ok := rows[key]; !ok {
			t.Errorf("RandomOptions writes a field %q that this table does not flip", key)
		}
	}
	if len(all) != len(rows) {
		t.Errorf("the table has %d rows for %d written fields", len(rows), len(all))
	}
	inOptions := make(map[string]bool)
	for _, key := range writtenOptionKeys(reflect.TypeOf(core.Options{})) {
		inOptions[key] = true
	}
	verdict := func(t *testing.T, file, key string, free bool, err error) {
		t.Helper()
		switch {
		case free && err != nil:
			t.Errorf("%s: %s is resume-free, yet the resume was refused: %v", file, key, err)
		case !free && err == nil:
			t.Errorf("%s: a resume with %s flipped was accepted", file, key)
		case !free && (!strings.Contains(err.Error(), "does not match this run") || !strings.Contains(err.Error(), key+" is ")):
			t.Errorf("%s: the refusal does not name %s: %v", file, key, err)
		}
	}
	keys := make([]string, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		row := rows[key]
		t.Run(key, func(t *testing.T) {
			saved := R{Rows: 2, Cols: 2, Samples: 2, Seed: 7}
			if row.save != nil {
				row.save(&saved)
			}
			resumed := saved
			row.flip(&resumed)

			path := filepath.Join(t.TempDir(), "checkpoint.json")
			saved.Checkpoint = func(cp *core.RandomCheckpoint) error { return cp.Save(path) }
			if _, err := core.RandomCheck(sub, nil, saved); err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			cp, err := core.LoadRandomCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed.Resume = cp
			_, err = core.RandomCheck(sub, nil, resumed)
			verdict(t, "checkpoint", key, row.free, err)

			// The manifest holds a test where the checkpoint holds the
			// sampling parameters: init and final are sections of it.
			m := func(o R) *core.Test {
				return &core.Test{Init: o.Init, Rows: [][]core.Op{{inc, get}, {inc}}, Final: o.Final}
			}
			if !inOptions[key] && key != "init" && key != "final" {
				return
			}
			dir := t.TempDir()
			if _, _, err := dist.Run(context.Background(), dist.Config{
				Subject: sub, Test: m(saved), Options: saved.Options, Workers: 1, Depth: 1, Dir: dir,
			}); err != nil {
				t.Fatalf("journaled run: %v", err)
			}
			_, _, err = dist.Run(context.Background(), dist.Config{
				Subject: sub, Test: m(resumed), Options: resumed.Options, Workers: 1, Depth: 1, Dir: dir,
			})
			if key == "sample_schedules" {
				// Not a resume question: sampling cannot be distributed at all.
				var oe *core.OptionsError
				if !errors.As(err, &oe) || oe.Field != "SampleSchedules" {
					t.Errorf("manifest: distributed sampling gave %v, want a SampleSchedules *core.OptionsError", err)
				}
				return
			}
			if key == "init" || key == "final" {
				key = "test." + key
			}
			verdict(t, "manifest", key, row.free, err)
		})
	}
}

// TestOldDistFilesRefusedByVersion: a version-1 manifest (six option values
// and the test as bare rows at the top level) and a job file of the first
// format are refused with both version numbers in the message —
// the manifest before its "test" array can fail to decode as today's object,
// the job before a worker runs anything.
func TestOldDistFilesRefusedByVersion(t *testing.T) {
	sub := counterSubject()
	dir := t.TempDir()
	v1 := `{"version": 1, "subject": "Counter", "test": [["Inc()", "Get()"], ["Inc()"]],
  "preemption_bound": 0, "reduction": "none", "depth": 1, "units": 2, "split_pruned": 0,
  "entries": [{"seq": 0, "state": "done", "attempts": 1}, {"seq": 1, "state": "pending", "attempts": 0}]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := dist.Run(context.Background(), dist.Config{Subject: sub, Test: testFor(sub), Workers: 1, Depth: 1, Dir: dir})
	for _, want := range []string{"manifest", "version 1", "version 2"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version-1 manifest: refusal does not say %q: %v", want, err)
		}
	}

	// The first job format carried no version at all (it reads as 0); one
	// that says 1 is refused the same way.
	for _, c := range []struct{ head, reads string }{{`{`, "version 0"}, {`{"version": 1, `, "version 1"}} {
		job := filepath.Join(dir, "job.json")
		old := c.head + `"subject": "Counter", "test": [["Inc()", "Get()"], ["Inc()"]], "options": {"reduction": "sleep"},
  "spec": {"seq": 0, "attempt": 1, "unit": {}, "heartbeat_every": 1000000}, "report_path": "` + filepath.Join(dir, "r.json") + `"}`
		if err := os.WriteFile(job, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		resolve := func(string) (*core.Subject, bool) {
			t.Error("an old job file got as far as resolving its class")
			return sub, true
		}
		err = dist.RunWorker(job, resolve, &strings.Builder{})
		for _, want := range []string{"job file", c.reads, "version 2"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("old job file: refusal does not say %q: %v", want, err)
			}
		}
	}
}
