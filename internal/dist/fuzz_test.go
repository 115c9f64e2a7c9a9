package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lineup/internal/core"
)

// FuzzCheckFiles feeds arbitrary bytes to the three loaders of the files a
// check is written down in — the dist job file, the dist manifest, the
// RandomCheck checkpoint. They are external input (kill -9 tears them,
// operators edit them): each loader must return a structured error or a value
// whose written form is a fixed point (writing it, loading that and writing
// again gives the same bytes), and never panic.
func FuzzCheckFiles(f *testing.F) {
	for _, seed := range []string{
		`{"version": 4, "subject": "Counter", "test": {"init": ["Inc()"], "rows": [["Inc()", "Get()"], ["Inc()"]], "final": ["Get()"]},
  "options": {"preemption_bound": -2, "reduction": "sleep", "witness": "monitor", "model": "counter", "watchdog": 1000000000, "relaxed_ops": ["Get()"]},
  "depth": 2, "units": 2, "split_pruned": 1, "entries": [{"seq": 0, "state": "done", "attempts": 1}, {"seq": 1, "state": "poisoned", "attempts": 3, "last_err": "x"}],
  "spec": {"seq": 1, "attempt": 2, "unit": {}, "heartbeat_every": 2500000000}, "report_path": "r.json",
  "spec_histories": [{"Ops": [{"Thread": 0, "Name": "Inc()", "Result": "ok"}, {"Thread": 0, "Name": "Get()", "Result": "1"}]}]}`,
		`{"version": 4, "subject": "Counter", "test": {"init": ["Inc()"], "rows": [["Inc()", "Get()"], ["Inc()"]], "final": ["Get()"]},
  "options": {"reduction": "sleep", "witness": "monitor", "model": "counter"},
  "spec": {"seq": 0, "attempt": 1, "unit": {"seq": 0, "path": [0, 1], "floor": 1}, "heartbeat_every": 2500000000}, "report_path": "r.json",
  "spec_histories": [{"Ops": [{"Thread": 0, "Name": "Inc()", "Result": "ok"}, {"Thread": 1, "Name": "Get()", "Result": "1"}]}]}`,
		`{"version": 2, "subject": "Counter1", "options": {"rows": 2, "cols": 2, "samples": 8, "seed": 7, "workers": 4, "reduction": "none"},
  "tests": [{"index": 3, "failed": true, "violation_kind": 1, "phase1": {"Executions": 6}, "phase2": {"Executions": 40}}, null]}`,
		`{"version": 5, "subject": "Counter", "test": {"rows": [["Inc()", "Get()"], ["Inc()"]]}, "options": {"reduction": "sleep"},
  "depth": 2, "units": 2, "split_pruned": 1, "entries": [{"seq": 0, "state": "done", "attempts": 1}]}`,
		`{"version": 5, "subject": "Counter", "test": {"rows": [["Inc()"], ["Get()"]]}, "options": {"reduction": "sleep"},
  "spec_histories": [{"Ops": [{"Thread": 0, "Name": "Inc()", "Result": "ok"}, {"Thread": 1, "Name": "Get()", "Result": "1"}]},
    {"Ops": [{"Thread": 1, "Name": "Get()", "Result": "0"}], "Pending": null}, null],
  "depth": 1, "units": 1, "split_pruned": 0, "entries": [{"seq": 0, "state": "pending", "attempts": 0}]}`,
		`{"version": 1, "subject": "Counter", "test": [["Inc()"]], "reduction": "none"}`,
		`{"version": 2, "options": {"model": "deque"}}`,
		`{"version": 2, "test": {"rows": [["a(b", "noparens", "x(1)(2)"]]}, "options": {"reduction": "dpor"}}`,
		`{"version": 2, "test": null}`,
		`{"version": "2"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "file.json") // one per fuzzing process
	f.Fuzz(func(t *testing.T, data []byte) {
		// fixedPoint loads path with load; a value it yields must write, load
		// and write again to the same bytes.
		fixedPoint := func(what string, load func() (any, error)) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			v, err := load()
			if err != nil {
				return
			}
			first, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: loaded a value that cannot be written: %v", what, err)
			}
			if err := os.WriteFile(path, first, 0o644); err != nil {
				t.Fatal(err)
			}
			again, err := load()
			if err != nil {
				t.Fatalf("%s: its own written form does not load: %v\n%s", what, err, first)
			}
			if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
				t.Fatalf("%s: not a fixed point:\n first  %s\n second %s", what, first, second)
			}
		}
		fixedPoint("job file", func() (any, error) { return loadJob(path) })
		fixedPoint("manifest", func() (any, error) {
			man, err := loadManifest(path)
			if man == nil && err == nil {
				t.Fatal("loadManifest reported an existing file as missing")
			}
			return man, err
		})
		fixedPoint("checkpoint", func() (any, error) { return core.LoadRandomCheckpoint(path) })
	})
}
