package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// TestOptionFieldsDeclareTheirForm: every field of core.Options and
// core.RandomOptions either has a written form (a json name) or is on the
// does-not-travel list (tagged "-"), and that list is exactly the hooks and
// sinks named here. A new option cannot land without declaring which it is:
// untagged, it fails here; tagged "-", it has to be added below and say why
// no worker, manifest or checkpoint needs it.
func TestOptionFieldsDeclareTheirForm(t *testing.T) {
	stays := map[string]bool{
		// sinks of the process that holds them, and where it keeps its progress
		"Options.coverage": true, "Options.Telemetry": true,
		"RandomOptions.Dir": true,
		// a test's execution budget (WithExecutionBudget)
		"Options.budget": true,
	}
	names := make(map[string]string)
	for _, typ := range []reflect.Type{reflect.TypeOf(core.Options{}), reflect.TypeOf(core.RandomOptions{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue // RandomOptions embeds Options, whose fields are walked on their own
			}
			id := typ.Name() + "." + f.Name
			tag, ok := f.Tag.Lookup("json")
			name, _, _ := strings.Cut(tag, ",")
			switch {
			case !ok || name == "":
				t.Errorf("%s has no json tag: give it a written form, or tag it \"-\" and list it here", id)
			case name == "-" && !stays[id]:
				t.Errorf("%s is tagged \"-\" but is not on the does-not-travel list", id)
			case name != "-" && stays[id]:
				t.Errorf("%s is on the does-not-travel list but is written as %q", id, name)
			case name != "-":
				if other, dup := names[name]; dup {
					t.Errorf("%s and %s are both written as %q", other, id, name)
				}
				names[name] = id
			}
			delete(stays, id)
		}
	}
	for id := range stays {
		t.Errorf("%s is on the does-not-travel list but no longer exists", id)
	}
}

// roundTrip writes o down and reads it back.
func roundTrip(t *testing.T, o core.Options) core.Options {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatalf("writing %+v: %v", o, err)
	}
	var back core.Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("reading %s: %v", data, err)
	}
	return back
}

// TestOptionsWrittenFormRoundTrips: Options -> JSON -> Options is the
// identity on the bound sentinels, on every value of every enumerated option
// and on a value in every other written field; a model comes back as the
// built-in of its name. (TestLegalWitnessCells repeats it on every cell it
// walks.) The zero Options are written as the one field that is always
// written: {"reduction":"sleep"}.
func TestOptionsWrittenFormRoundTrips(t *testing.T) {
	if data, _ := json.Marshal(core.Options{}); string(data) != `{"reduction":"sleep"}` {
		t.Errorf(`zero Options are written as %s, want {"reduction":"sleep"}`, data)
	}
	cases := []core.Options{
		{},
		{PreemptionBound: core.Unbounded},
		{PreemptionBound: core.NoPreemptions},
		{PreemptionBound: 3, Reduction: sched.ReductionNone},
		{RelaxedOps: []string{"Count()", "TryTake()"}},
		{ExhaustPhase2: true},
		{Workers: 3, Watchdog: 1500000000, DetectLeaks: true, MaxFailures: 9},
	}
	for _, o := range cases {
		if back := roundTrip(t, o); !reflect.DeepEqual(back, o) {
			t.Errorf("round trip changed the options:\n wrote %+v\n read  %+v", o, back)
		}
	}
	for _, name := range monitor.BuiltinNames() {
		model, _ := monitor.Builtin(name)
		back := roundTrip(t, core.Options{MonitorModel: model})
		if back.MonitorModel == nil || back.MonitorModel.Name != name || back.MonitorModel.Step == nil {
			t.Errorf("model %q came back as %+v", name, back.MonitorModel)
		}
	}
	var o core.Options
	err := json.Unmarshal([]byte(`{"model":"deque"}`), &o)
	if err == nil || !strings.Contains(err.Error(), `unknown model "deque"`) {
		t.Errorf("an unknown model name read as %+v, err %v; want an error naming it", o.MonitorModel, err)
	}
	for _, bad := range []string{`{"reduction":"dpor"}`, `{"reduction":""}`} {
		if err := json.Unmarshal([]byte(bad), &o); err == nil {
			t.Errorf("%s was read without an error", bad)
		}
	}
}

// TestOldCheckpointRefusedByVersion: a version-1 checkpoint (seven
// hand-picked values at the top level) is refused with both version numbers
// in the message, before any of it is interpreted.
func TestOldCheckpointRefusedByVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"version": 1, "subject": "Counter1", "seed": 7, "rows": 2, "cols": 2, "samples": 8,
  "preemption_bound": 2, "reduction": "sleep", "tests": [{"index": 0, "failed": false, "phase1": {}, "phase2": {}}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := core.LoadRandomCheckpoint(path)
	if err == nil {
		t.Fatalf("a version-1 checkpoint loaded: %+v", cp)
	}
	for _, want := range []string{"version 1", "version 2", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not say %q: %v", want, err)
		}
	}
}

// sleepCheckpoint is a checkpoint of SemaphoreSlim(Pre), 4 tests of 3x3 at
// seed 1 under sleep sets, holding "workers": 4 from the days that field still
// counted the tests checked side by side.
const sleepCheckpoint = "testdata/checkpoint-sleep-with-workers.json"

// TestCheckpointFieldsDeclared: a checkpoint is read against the fields this
// build declares. sleepCheckpoint holds the retired "options.workers"; it
// loads and resumes to the summary of an uninterrupted run, and so does the
// same file holding "keep_spec", retired in turn. The same file holding an
// option no build declares is refused, the option named.
func TestCheckpointFieldsDeclared(t *testing.T) {
	const path = sleepCheckpoint
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"workers": 4`) {
		t.Fatalf("%s no longer holds the retired field", path)
	}
	cp, err := core.LoadRandomCheckpoint(path)
	if err != nil {
		t.Fatalf("a checkpoint with a retired field: %v", err)
	}

	withOption := func(field string) string {
		p := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := os.WriteFile(p, []byte(strings.Replace(string(data), `"seed": 1,`, `"seed": 1, `+field+`,`, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := core.LoadRandomCheckpoint(withOption(`"keep_spec": true`)); err != nil {
		t.Errorf("a checkpoint with the retired keep_spec: %v", err)
	}
	if _, err := core.LoadRandomCheckpoint(withOption(`"frobnicate": 3`)); err == nil || !strings.Contains(err.Error(), `"frobnicate"`) {
		t.Errorf("a checkpoint with an undeclared option: err = %v, want one naming it", err)
	}

	if testing.Short() {
		t.Skip("the resume checks four 3x3 tests; skipped in -short mode")
	}
	sched.RequireNoLeaks(t)
	sub := findClass(t, cp.Subject)
	opts := core.RandomOptions{Rows: 3, Cols: 3, Samples: 4, Seed: 1, Options: core.Options{PreemptionBound: 2, Workers: 2}}
	want, err := core.RandomCheck(sub, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(opts.Dir, "checkpoint.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := core.RandomCheck(sub, nil, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Resumed != len(cp.Tests) {
		t.Errorf("resumed %d tests, the checkpoint holds %d", got.Resumed, len(cp.Tests))
	}
	if got.Passed != want.Passed || got.Failed != want.Failed || got.StuckTests != want.StuckTests || got.SerialHistMax != want.SerialHistMax {
		t.Errorf("resumed summary %+v, uninterrupted %+v", got, want)
	}
	if want.FirstFailure == nil || got.FirstFailure == nil || got.FirstFailure.Violation.String() != want.FirstFailure.Violation.String() {
		t.Errorf("resumed first failure %v, uninterrupted %v", got.FirstFailure, want.FirstFailure)
	}
}

// TestCheckpointThatSampledRefused: the schedule-sampling options are gone
// and not retired. Only a run that sampled wrote them, and resuming it
// exhaustively would mix sampled PASSes with exhaustive ones, so
// sleepCheckpoint holding "sample_schedules" is refused,
// the field named; the file as it is resumes all four of its tests.
func TestCheckpointThatSampledRefused(t *testing.T) {
	checkpointFieldRefused(t, `"sample_schedules": 100`, "sample_schedules")
}

// TestCheckpointAtSyncGranularityRefused: the preemption granularity is gone
// and not retired. A run at sync-only granularity saw fewer schedules than
// one that preempts at every access, and resuming it would mix the two, so
// the checkpoint holding "granularity" is refused, the field named; the file
// as it is resumes.
func TestCheckpointAtSyncGranularityRefused(t *testing.T) {
	checkpointFieldRefused(t, `"granularity": "sync"`, "granularity")
}

// TestCheckpointWithoutReductionRefused: sleep sets became what an unset
// Reduction means, and a build before that wrote no "reduction" for none.
// testdata/checkpoint-with-workers.json is such a file (its tests were
// checked unreduced), so it is refused, the field named, rather than resumed
// as sleep sets with mixed statistics; sleepCheckpoint holding
// "reduction": "none" is refused by the resume's own comparison.
func TestCheckpointWithoutReductionRefused(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint-with-workers.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"reduction"`) {
		t.Fatal("testdata/checkpoint-with-workers.json records a reduction")
	}
	if _, err := core.LoadRandomCheckpoint("testdata/checkpoint-with-workers.json"); err == nil || !strings.Contains(err.Error(), "options.reduction") {
		t.Errorf("a checkpoint without reduction: err = %v, want one naming options.reduction", err)
	}
	sched.RequireNoLeaks(t)
	checkpointFieldRefused(t, `"reduction": "none"`, "reduction")
}

// TestCheckpointUnderRelaxedCriterionRefused: the relaxed consistency
// criteria are gone and not retired. A run under one passed histories that
// linearizability convicts, so a checkpoint holding "consistency" is
// refused, the field named.
func TestCheckpointUnderRelaxedCriterionRefused(t *testing.T) {
	checkpointFieldRefused(t, `"consistency": "sequential"`, "consistency")
}

// TestCheckpointWithRemovedSettingsRefused: the execution budget and the
// init and final sections of RandomOptions are no longer settings and not
// retired. A run under another budget could have stopped where this one does
// not, and one whose sampled tests had sections checked other tests, so a
// checkpoint holding one of them is refused, the field named; the file as it
// is resumes.
func TestCheckpointWithRemovedSettingsRefused(t *testing.T) {
	checkpointFieldRefused(t, `"max_executions_per_phase": 5000`, "max_executions_per_phase")
	checkpointFieldRefused(t, `"init": ["Release()"]`, "init")
	checkpointFieldRefused(t, `"final": ["Wait()"]`, "final")
}

// checkpointFieldRefused resumes sleepCheckpoint with field added to its
// options (after the field of that name, if it holds one: the later value is
// read), which must be refused naming name, and as it is, which must resume
// all four of its tests.
func checkpointFieldRefused(t *testing.T, field, name string) {
	t.Helper()
	data, err := os.ReadFile(sleepCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	sub := findClass(t, "SemaphoreSlim(Pre)")
	resume := func(file string) (*core.RandomSummary, error) {
		opts := core.RandomOptions{Rows: 3, Cols: 3, Samples: 4, Seed: 1, Options: core.Options{PreemptionBound: 2, Workers: 1}, Dir: t.TempDir()}
		if err := os.WriteFile(filepath.Join(opts.Dir, "checkpoint.json"), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		return core.RandomCheck(sub, nil, opts)
	}
	with := strings.Replace(string(data), `"seed": 1,`, `"seed": 1, `+field+`,`, 1)
	if _, err := resume(with); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) && !strings.Contains(err.Error(), "options."+name+" is ") {
		t.Errorf("a checkpoint holding %s: err = %v, want one naming %s", field, err, name)
	}
	if sum, err := resume(string(data)); err != nil || sum.Resumed != 4 {
		t.Errorf("the same checkpoint without %s: err = %v, resumed %v", name, err, sum)
	}
}

// TestResumeMismatchNamesEveryField pins the diff itself: every differing
// leaf is named with both values in one error, in sorted order, nested
// objects by path; the resume-free fields and the caller's progress fields
// are not compared.
func TestResumeMismatchNamesEveryField(t *testing.T) {
	type file struct {
		Version int                `json:"version"`
		Options core.RandomOptions `json:"options"`
		Tests   []int              `json:"tests"`
	}
	saved := file{1, core.RandomOptions{Rows: 2, Seed: 7, Options: core.Options{Reduction: sched.ReductionNone, Workers: 2}}, []int{1, 2}}
	now := file{1, core.RandomOptions{Rows: 3, Seed: 7, Options: core.Options{MaxFailures: 5, Watchdog: 1}}, nil}
	err := core.ResumeMismatch("checkpoint", saved, now, "tests")
	if err == nil {
		t.Fatal("no mismatch reported")
	}
	want := `core: checkpoint does not match this run: ` +
		`options.max_failures is unset in the checkpoint but 5 here; ` +
		`options.reduction is "none" in the checkpoint but "sleep" here; ` +
		`options.rows is 2 in the checkpoint but 3 here`
	if err.Error() != want {
		t.Errorf("got  %v\nwant %s", err, want)
	}
	now.Options.Rows, now.Options.MaxFailures, now.Options.Reduction = 2, 0, sched.ReductionNone
	if err := core.ResumeMismatch("checkpoint", saved, now, "tests"); err != nil {
		t.Errorf("only resume-free and progress fields differ, yet: %v", err)
	}
}
