package dist_test

import (
	"context"
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
// (the worker count, the watchdog interval), which must be accepted. The
// table is checked against the struct by reflection, so a new written option
// cannot land without its row. A manifest also refuses a test whose init or
// final section differs. The "witness" row is a field that is gone: a file
// that still holds it is read as below.
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
		"preemption_bound": {flip: func(o *R) { o.PreemptionBound = 1 }},
		"exhaust_phase2":   {flip: func(o *R) { o.ExhaustPhase2 = true }},
		"relaxed_ops":      {flip: func(o *R) { o.RelaxedOps = []string{"Get()"} }},
		"model": {save: func(o *R) { o.MonitorModel = monitor.CounterModel() },
			flip: func(o *R) { o.MonitorModel = monitor.RegisterModel() }},
		"explore_workers":       {flip: func(o *R) { o.Options.Workers = 2 }, free: true},
		"watchdog":              {flip: func(o *R) { o.Watchdog = time.Minute }, free: true},
		"detect_leaks":          {flip: func(o *R) { o.DetectLeaks = true }},
		"reduction":             {flip: func(o *R) { o.Reduction = sched.ReductionNone }},
		"max_failures":          {flip: func(o *R) { o.MaxFailures = 3 }},
		"rows":                  {flip: func(o *R) { o.Rows = 1 }},
		"cols":                  {flip: func(o *R) { o.Cols = 1 }},
		"samples":               {flip: func(o *R) { o.Samples = 3 }},
		"seed":                  {flip: func(o *R) { o.Seed = 99 }},
		"stop_at_first_failure": {flip: func(o *R) { o.StopAtFirstFailure = true }},
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

			saved.Dir = t.TempDir()
			if _, err := core.RandomCheck(sub, nil, saved); err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			resumed.Dir = saved.Dir
			_, err := core.RandomCheck(sub, nil, resumed)
			verdict(t, "checkpoint", key, row.free, err)

			if !inOptions[key] {
				return
			}
			m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
			verdict(t, "manifest", key, row.free, journalResume(t, m, saved.Options, m, resumed.Options))
		})
	}

	// The manifest holds a test where the checkpoint holds the sampling
	// parameters: init and final are sections of it, flipped on the test.
	for _, section := range []struct {
		name string
		flip func(*core.Test)
	}{
		{"init", func(m *core.Test) { m.Init = []core.Op{inc} }},
		{"final", func(m *core.Test) { m.Final = []core.Op{get} }},
	} {
		t.Run(section.name, func(t *testing.T) {
			saved := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
			resumed := *saved
			section.flip(&resumed)
			verdict(t, "manifest", "test."+section.name, false, journalResume(t, saved, core.Options{}, &resumed, core.Options{}))
		})
	}

	// Options used to carry "witness": "spec" or "monitor", and "monitor"
	// with a model is what the model alone says now; "spec" is the default
	// and was never written. So a file that holds "witness": "monitor" resumes
	// under its model, and without the model it is refused on options.model.
	t.Run("witness", func(t *testing.T) {
		saved := R{Rows: 2, Cols: 2, Samples: 2, Seed: 7}
		saved.MonitorModel = monitor.CounterModel()
		addWitness := func(path string) {
			t.Helper()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(data), `"model": "counter"`) != 1 {
				t.Fatalf("%s does not hold the model once:\n%s", path, data)
			}
			old := strings.Replace(string(data), `"model": "counter"`, `"witness": "monitor", "model": "counter"`, 1)
			if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		saved.Dir = t.TempDir()
		want, err := core.RandomCheck(sub, nil, saved)
		if err != nil {
			t.Fatalf("checkpointed run: %v", err)
		}
		addWitness(filepath.Join(saved.Dir, "checkpoint.json"))
		for _, model := range []*monitor.Model{saved.MonitorModel, nil} {
			resumed := saved
			resumed.MonitorModel = model
			got, err := core.RandomCheck(sub, nil, resumed)
			switch {
			case model == nil:
				verdict(t, "checkpoint", "options.model", false, err)
			case err != nil:
				t.Errorf("checkpoint: a file saying witness monitor was refused under its model: %v", err)
			case got.Passed != want.Passed || got.Failed != want.Failed:
				t.Errorf("checkpoint: resumed %d passed, %d failed; the run that wrote it %d, %d", got.Passed, got.Failed, want.Passed, want.Failed)
			}
		}

		m := &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
		cfg := dist.WithLeasing(dist.Config{Subject: sub, Test: m, Options: saved.Options, Workers: 1, Dir: t.TempDir()}, 0, 0, 1)
		if _, _, err := dist.Run(context.Background(), cfg); err != nil {
			t.Fatalf("journaled run: %v", err)
		}
		addWitness(filepath.Join(cfg.Dir, "manifest.json"))
		_, stats, err := dist.Run(context.Background(), cfg)
		if err != nil || stats.Resumed != stats.Units {
			t.Errorf("manifest: a file saying witness monitor did not resume under its model: %v, %+v", err, stats)
		}
		cfg.Options.MonitorModel = nil
		_, _, err = dist.Run(context.Background(), cfg)
		verdict(t, "manifest", "options.model", false, err)
	})
}

// journalResume runs the check of saved with a manifest kept in a fresh
// directory and then resumes the check of resumed on that directory,
// returning the resume's error.
func journalResume(t *testing.T, saved *core.Test, savedOpts core.Options, resumed *core.Test, resumedOpts core.Options) error {
	t.Helper()
	sub := counterSubject()
	dir := t.TempDir()
	if _, _, err := dist.Run(context.Background(), dist.WithLeasing(dist.Config{
		Subject: sub, Test: saved, Options: savedOpts, Workers: 1, Dir: dir,
	}, 0, 0, 1)); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	_, _, err := dist.Run(context.Background(), dist.WithLeasing(dist.Config{
		Subject: sub, Test: resumed, Options: resumedOpts, Workers: 1, Dir: dir,
	}, 0, 0, 1))
	return err
}

// TestOldDistFilesRefusedByVersion: a version-1 manifest (six option values
// and the test as bare rows at the top level), a version-2 one (its unit
// reports key histories another way, so merging them with new reports would
// count one history twice) and a job file of the first format are refused
// with both version numbers in the message — the manifest before its "test"
// array can fail to decode as today's object, the job before a worker runs
// anything.
func TestOldDistFilesRefusedByVersion(t *testing.T) {
	sub := counterSubject()
	cfg := dist.WithLeasing(dist.Config{Subject: sub, Test: testFor(sub), Workers: 1, Dir: t.TempDir()}, 0, 0, 1)
	if _, _, err := dist.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.Dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := strings.Replace(string(data), `"version": 3`, `"version": 2`, 1)
	v1 := `{"version": 1, "subject": "Counter", "test": [["Inc()", "Get()"], ["Inc()"]],
  "preemption_bound": 0, "reduction": "none", "depth": 1, "units": 2, "split_pruned": 0,
  "entries": [{"seq": 0, "state": "done", "attempts": 1}, {"seq": 1, "state": "pending", "attempts": 0}]}`
	for _, old := range []struct{ version, text string }{{"version 1", v1}, {"version 2", v2}} {
		if err := os.WriteFile(filepath.Join(cfg.Dir, "manifest.json"), []byte(old.text), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := dist.Run(context.Background(), cfg)
		for _, want := range []string{"manifest", old.version, "version 3"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s manifest: refusal does not say %q: %v", old.version, want, err)
			}
		}
	}

	// The first job format carried no version at all (it reads as 0); one
	// that says 1 is refused the same way.
	for _, c := range []struct{ head, reads string }{{`{`, "version 0"}, {`{"version": 1, `, "version 1"}} {
		job := filepath.Join(cfg.Dir, "job.json")
		old := c.head + `"subject": "Counter", "test": [["Inc()", "Get()"], ["Inc()"]], "options": {"reduction": "sleep"},
  "spec": {"seq": 0, "attempt": 1, "unit": {}, "heartbeat_every": 1000000}, "report_path": "` + filepath.Join(cfg.Dir, "r.json") + `"}`
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

// TestWorkerRefusesJobWithoutSpec: a unit is checked against its plan's
// specification only, so a job file that ships none, or a null serial
// history in it, is refused with the field named before a class is resolved.
func TestWorkerRefusesJobWithoutSpec(t *testing.T) {
	job := filepath.Join(t.TempDir(), "job.json")
	head := `{"version": 2, "subject": "Counter", "test": {"rows": [["Inc()"], ["Get()"]]}, "options": {"reduction": "sleep"},
  "spec": {"seq": 0, "attempt": 1, "unit": {"seq": 0, "path": [], "floor": 0}, "heartbeat_every": 1000000}, "report_path": "r.json"`
	for _, tail := range []string{`}`, `, "spec_histories": []}`, `, "spec_histories": [null]}`} {
		if err := os.WriteFile(job, []byte(head+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		resolve := func(string) (*core.Subject, bool) {
			t.Errorf("a job without a specification got as far as resolving its class (%s)", tail)
			return counterSubject(), true
		}
		err := dist.RunWorker(job, resolve, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "spec_histories") {
			t.Errorf("job ending %s: err = %v, want a refusal naming spec_histories", tail, err)
		}
	}
}
