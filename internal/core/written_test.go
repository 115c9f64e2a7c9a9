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
		// sinks and hooks of the process that holds them
		"Options.Coverage": true, "Options.ShardProgress": true, "Options.Telemetry": true,
		"RandomOptions.Progress": true, "RandomOptions.Checkpoint": true, "RandomOptions.Resume": true,
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
// walks.) The zero Options are written as {}.
func TestOptionsWrittenFormRoundTrips(t *testing.T) {
	if data, _ := json.Marshal(core.Options{}); string(data) != "{}" {
		t.Errorf("zero Options are written as %s, want {}", data)
	}
	cases := []core.Options{
		{},
		{PreemptionBound: core.Unbounded},
		{PreemptionBound: core.NoPreemptions},
		{PreemptionBound: 3, Granularity: sched.GranSync, Reduction: sched.ReductionSleep},
		{Consistency: core.SequentialConsistency, RelaxedOps: []string{"Count()", "TryTake()"}},
		{Consistency: core.QuiescentConsistency, MaxExecutionsPerPhase: 5000, KeepSpec: true, ExhaustPhase2: true},
		{SampleSchedules: 100, SampleStrategy: sched.StrategyPCT, SampleSeed: -7, PCTDepth: 4},
		{WitnessSearch: core.WitnessMonitor, Workers: 3, Watchdog: 1500000000, DetectLeaks: true, MaxFailures: 9},
	}
	for _, o := range cases {
		if back := roundTrip(t, o); !reflect.DeepEqual(back, o) {
			t.Errorf("round trip changed the options:\n wrote %+v\n read  %+v", o, back)
		}
	}
	for _, name := range monitor.BuiltinNames() {
		model, _ := monitor.Builtin(name)
		back := roundTrip(t, core.Options{WitnessSearch: core.WitnessMonitor, MonitorModel: model})
		if back.WitnessSearch != core.WitnessMonitor || back.MonitorModel == nil || back.MonitorModel.Name != name || back.MonitorModel.Step == nil {
			t.Errorf("model %q came back as %+v", name, back.MonitorModel)
		}
	}
	var o core.Options
	err := json.Unmarshal([]byte(`{"witness":"monitor","model":"deque"}`), &o)
	if err == nil || !strings.Contains(err.Error(), `unknown model "deque"`) {
		t.Errorf("an unknown model name read as %+v, err %v; want an error naming it", o.MonitorModel, err)
	}
	for _, bad := range []string{`{"reduction":"dpor"}`, `{"granularity":"op"}`, `{"sample_strategy":"bfs"}`, `{"consistency":"eventual"}`, `{"witness":"fast"}`} {
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
	saved := file{1, core.RandomOptions{Rows: 2, Seed: 7, Workers: 4, Options: core.Options{Reduction: sched.ReductionSleep, Workers: 2, KeepSpec: true}}, []int{1, 2}}
	now := file{1, core.RandomOptions{Rows: 3, Seed: 7, Workers: 1, Options: core.Options{MaxFailures: 5, Watchdog: 1}}, nil}
	err := core.ResumeMismatch("checkpoint", saved, now, "tests")
	if err == nil {
		t.Fatal("no mismatch reported")
	}
	want := `core: checkpoint does not match this run: ` +
		`options.max_failures is unset in the checkpoint but 5 here; ` +
		`options.reduction is "sleep" in the checkpoint but unset here; ` +
		`options.rows is 2 in the checkpoint but 3 here`
	if err.Error() != want {
		t.Errorf("got  %v\nwant %s", err, want)
	}
	now.Options.Rows, now.Options.MaxFailures, now.Options.Reduction = 2, 0, sched.ReductionSleep
	if err := core.ResumeMismatch("checkpoint", saved, now, "tests"); err != nil {
		t.Errorf("only resume-free and progress fields differ, yet: %v", err)
	}
}
