// Command benchmark measures lineup end to end and layer by layer on six
// named workloads. See README.md in this directory; BENCHMARK.json at the
// repository root names every metric it reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// provenance says where and how a result file was produced.
type provenance struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Calibration calibration        `json:"calibration"`
	Passes      int                `json:"repetitions"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Inputs      map[string]string  `json:"inputs_sha256"`
	Metrics     map[string]summary `json:"metrics"`
}

// calibration says how a workload's times were calibrated: the reference
// kernel's nominal time and what it took during the run. An end-to-end
// time in the file is wall-clock time × nominal ÷ observed, pass by pass;
// raw_wall_s holds the wall-clock seconds of the passes.
type calibration struct {
	NominalMS float64 `json:"nominal_ms"`
	Observed  summary `json:"observed_ms"`
	RawWall   summary `json:"raw_wall_s"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// commit is the revision the go command stamped into the binary, or
// "unknown" when the build did not happen inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runWorkload sets the workload up, runs its untraced region or its traced
// decomposition, and returns the metrics BENCHMARK.json declares for that
// kind of run.
func runWorkload(w workload, cfg config, spec *benchSpec, rec *recorder) (*workloadResult, error) {
	proc := startProcStats()
	defer proc.stop()
	cfg.traced = rec != nil
	cal := newCalibrator()
	setups, err := timeSetup(w, cfg, cal)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	res := &workloadResult{Inputs: w.inputs(), Metrics: make(map[string]summary)}
	measured := make(map[string][]float64)
	var t tally
	declared := spec.EndToEnd
	if rec == nil {
		e, err := w.measure(cfg, cal)
		if err != nil {
			return nil, err
		}
		t = e.tally
		res.Passes = len(e.wall)
		res.Calibration.RawWall = summarize("s", e.raw)
		measured["setup_s"] = setups
		measured["wall_s"] = e.wall
		measured["ops_per_s"] = e.opsPerS
		measured["verdict_p50_ms"] = e.p50
	} else {
		declared = spec.PerLayer
		layer, lt, err := w.layers(cfg, rec)
		if err != nil {
			return nil, err
		}
		t = lt
		res.Passes = 1
		for k, v := range proc.metrics() {
			layer[k] = v
		}
		layer["calib.kernel_ms"] = median(cal.ms)
		layer["trace.spans"] = float64(len(rec.spans))
		layer["failed_share"] = ratio(float64(t.failed), float64(t.attempted))
		for k, v := range layer {
			measured[k] = []float64{v}
		}
	}
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.notes
	res.Calibration.NominalMS = nominalKernelMS
	res.Calibration.Observed = summarize("ms", cal.ms)
	units := make(map[string]string)
	for _, d := range declared {
		units[d.Name] = d.Unit
		if xs, ok := measured[d.Name]; ok {
			res.Metrics[d.Name] = summarize(d.Unit, xs)
		}
	}
	for name := range measured {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("%s measures %q, which BENCHMARK.json does not declare", w.name(), name)
		}
	}
	return res, nil
}

func printResult(name string, r *workloadResult) {
	fmt.Printf("== %s: %d repetitions, %d verdicts checked, %d failed; reference kernel %.3f ms (nominal %.1f)\n", name, r.Passes, r.Attempted, r.Failed,
		r.Calibration.Observed.Median, r.Calibration.NominalMS)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, k := range sortedKeys(r.Metrics) {
		s := r.Metrics[k]
		if s.N > 1 {
			fmt.Printf("   %-40s %14.4f %-6s min %.4f max %.4f spread %.1f%% n %d\n", k, s.Median, s.Unit, s.Min, s.Max, 100*s.Spread, s.N)
		} else {
			fmt.Printf("   %-40s %14.4f %s\n", k, s.Median, s.Unit)
		}
	}
}

// driverLine is the last line of standard output when one workload runs:
// every declared metric of the run's kind, a metric this workload does not
// measure reading 0.
func driverLine(spec *benchSpec, traced bool, r *workloadResult) string {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range declared {
		metrics[d.Name] = value{Value: r.Metrics[d.Name].Median, Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// outDir receives the result and trace files; the command runs from the
// repository root.
const outDir = "benchmark/out"

func run() error {
	var (
		only    = flag.String("workload", "", "run only this workload (default: all six)")
		seed    = flag.Int64("seed", 1, "seed of every generator")
		seconds = flag.Float64("seconds", 16, "length of each workload's measured region")
		trace   = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1 or a file path: traced run, per-layer metrics, spans written there")
		smoke   = flag.Bool("smoke", false, "inputs at about 1/50 size")
		diff    = flag.Bool("diff", false, "compare two result files: -diff old.json new.json")
		rec     = flag.String("record", "", "regenerate the goldens for these comma-separated seeds")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *diff {
		if flag.NArg() != 2 {
			return errors.New("usage: -diff old.json new.json")
		}
		return diffResults(spec, flag.Arg(0), flag.Arg(1))
	}
	if *rec != "" {
		var seeds []int64
		for _, f := range strings.Split(*rec, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("-record: %w", err)
			}
			seeds = append(seeds, n)
		}
		return record(seeds)
	}

	traced := *trace != "0"
	tracePath := *trace
	if tracePath == "1" {
		tracePath = filepath.Join(outDir, "trace.jsonl")
	}
	cfg := newConfig(*seed, *seconds, *smoke)
	out := &resultFile{
		Provenance: provenance{
			Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Seed: *seed, Seconds: *seconds, Traced: traced, Smoke: *smoke,
		},
		Workloads: make(map[string]*workloadResult),
	}
	var last *workloadResult
	var spans []workloadSpans
	failed := 0
	for _, w := range workloads() {
		if *only != "" && w.name() != *only {
			continue
		}
		var recd *recorder
		if traced {
			recd = newRecorder()
		}
		r, err := runWorkload(w, cfg, spec, recd)
		if err != nil {
			return err
		}
		if traced {
			spans = append(spans, workloadSpans{w.name(), recd.spans})
		}
		out.Workloads[w.name()] = r
		printResult(w.name(), r)
		failed += r.Failed
		last = r
	}
	if last == nil {
		return fmt.Errorf("no workload named %q", *only)
	}
	file := "result.json"
	if traced {
		file = "result-trace.json"
		if err := writeTrace(tracePath, spans); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(outDir, file), out); err != nil {
		return err
	}
	if *only != "" {
		fmt.Println(driverLine(spec, traced, last))
	}
	if failed > 0 {
		return fmt.Errorf("%d verdicts failed", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
