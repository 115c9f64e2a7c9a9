package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	// Quartiles of 10,20,30,40 are 17.5 and 32.5; the median is 25.
	if got := spread(xs); !near(got, 15.0/25) {
		t.Errorf("spread = %v, want %v", got, 15.0/25)
	}
	s := summarize("ms", xs)
	if s.Min != 10 || s.Max != 40 || s.Median != 25 || s.N != 4 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "check", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "phase1", StartUS: 0, EndUS: 30},
		{ID: 2, Parent: 0, Name: "phase2", StartUS: 30, EndUS: 100},
		// A re-execution runs after its parent but is accounted under it.
		{ID: 3, Parent: 1, Name: "explore", StartUS: 100, EndUS: 120},
		{ID: 4, Parent: 2, Name: "explore", StartUS: 120, EndUS: 170},
		{ID: 5, Parent: -1, Name: "check", StartUS: 200, EndUS: 210},
	}}
	self := r.selfTimes()
	for name, wantUS := range map[string]float64{"check": 10, "phase1": 10, "phase2": 20, "explore": 70} {
		if got := self[name].Seconds() * 1e6; !near(got, wantUS) {
			t.Errorf("self time of %s = %v us, want %v", name, got, wantUS)
		}
	}
	if got := r.total("explore").Seconds() * 1e6; !near(got, 70) {
		t.Errorf("total explore = %v us, want 70", got)
	}
	var none *recorder
	if id := none.start("x", "", -1); id != -1 || none.end(id) != 0 {
		t.Errorf("a nil recorder must record nothing")
	}
}

func TestCalibrator(t *testing.T) {
	runs := 0
	c := &calibrator{run: func() { runs++ }}
	c.ms = []float64{1, 2, 4}
	if got := c.factorSince(1); !near(got, nominalKernelMS/3) {
		t.Errorf("factor over samples 2 and 4 = %v, want nominal/3", got)
	}
	if got := c.factorSince(c.mark()); !near(got, nominalKernelMS/4) {
		t.Errorf("factor over the latest sample = %v, want nominal/4", got)
	}
	sw := c.stopwatch()
	c.sample()
	if runs != 5 || len(c.ms) != 4 || c.spent <= 0 {
		t.Errorf("one sample ran the kernel %d times, kept %d values, spent %v", runs, len(c.ms), c.spent)
	}
	c.spent += time.Hour // as if the samples inside the pass had taken an hour
	if d := sw.elapsed(); d > 0 {
		t.Errorf("the stopwatch counted %v of sampling time", d+time.Hour)
	}
	c.tick() // the latest sample is fresh
	if runs != 5 {
		t.Errorf("tick sampled %v after the previous sample", time.Since(c.last))
	}
	var none *calibrator
	none.sample()
	none.tick()
	if none.factorSince(none.mark()) != 1 || none.stopwatch().elapsed() < 0 {
		t.Errorf("a nil calibrator must calibrate by 1")
	}
}

func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := func(m float64) summary { return summary{Median: m, Min: m * 0.99, Max: m * 1.01, Spread: 0.01} }
	noisy := func(m float64) summary { return summary{Median: m, Min: m * 0.8, Max: m * 1.2, Spread: 0.2} }
	for _, c := range []struct {
		m        metricSpec
		old, cur summary
		want     string
	}{
		{lower, steady(1), steady(1.05), "within bound"},
		{lower, steady(1), steady(1.2), "worse"},
		{lower, steady(1), steady(0.8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, noisy(1), steady(1.05), "unresolved"},
		{lower, noisy(1), steady(0.5), "better"}, // every new run beats every old one
	} {
		if got := compare(c.m, c.old, c.cur); got != c.want {
			t.Errorf("compare(%s, %v → %v) = %s, want %s", c.m.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}

// payloads renders every generated input of a seed as bytes.
func payloads(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	cfg := newConfig(seed, 1, true)
	out := make(map[string][]byte)
	for _, kind := range []string{"check-pass", "check-deep", "check-hunt"} {
		w := &checkWorkload{kind: kind}
		w.build(cfg)
		out[kind] = []byte(w.inputs()["tests"])
	}
	traces, err := genTraces(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		out["trace/"+tr.id] = tr.payload
	}
	fs := genFreshStream(newRand(seed, 400), 4000, freshSlots, freshThreads, freshWindow)
	fr, err := frames(fs.Events, frameBatch)
	if err != nil {
		t.Fatal(err)
	}
	out["fresh"] = fr
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, other := payloads(t, 1), payloads(t, 1), payloads(t, 2)
	if len(a) != len(other) {
		t.Fatalf("seed 1 generates %d payloads, seed 2 %d", len(a), len(other))
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if name != "check-deep" && bytes.Equal(a[name], other[name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", name)
		}
	}
}

// TestGeneratedTracesAreValid checks, for two seeds, that every generated
// trace parses under obsfile's thread discipline, that its witness replays
// through the model, and that the verdict mix does not depend on the seed:
// the last trace of each family is the only one not linearizable.
func TestGeneratedTracesAreValid(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		traces, err := genTraces(newConfig(seed, 1, true), 1)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for _, tr := range traces {
			h, err := obsfile.ReadTrace(bytes.NewReader(tr.payload))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tr.id, err)
			}
			if got := len(h.Ops()); got != tr.tr.Ops {
				t.Errorf("seed %d %s: %d operations parsed, %d generated", seed, tr.id, got, tr.tr.Ops)
			}
			out, err := monitor.Check(tr.model, h, monitor.Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tr.id, err)
			}
			if out.Linearizable == tr.tr.Bad {
				t.Errorf("seed %d %s: linearizable=%v but generated bad=%v", seed, tr.id, out.Linearizable, tr.tr.Bad)
			}
			if tr.tr.Bad {
				bad++
			}
		}
		if bad != 2 || len(traces) != 4 {
			t.Errorf("seed %d: %d traces, %d bad; want 4 and 2", seed, len(traces), bad)
		}
	}
}

// TestWindowCloserBookkeeping compares the fresh-stream generator's own
// window counting with splitWindows, which applies serve's documented
// retirement rule independently, and with a real server.
func TestWindowCloserBookkeeping(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		fs := genFreshStream(newRand(seed, 400), 6000, freshSlots, freshThreads, freshWindow)
		keys, windows, err := splitWindows(fs.Events, freshWindow)
		if err != nil {
			t.Fatalf("seed %d: the stream breaks thread discipline: %v", seed, err)
		}
		byKey := make(map[string][][]int)
		for i, k := range keys {
			for _, win := range windows[i] {
				byKey[k] = append(byKey[k], []int{len(win) / 2, win[len(win)-1].Index})
			}
		}
		finished, flushes := 0, 0
		model := monitor.QueueModel()
		for _, s := range fs.Sessions {
			if err := replayWitness(model, s.Witness); err != nil {
				t.Errorf("seed %d session %s: %v", seed, s.Key, err)
			}
			wins := byKey[s.Key]
			flushes += len(wins)
			for _, w := range wins {
				if w[0] != freshWindow {
					t.Errorf("seed %d session %s: a window of %d operations, want %d", seed, s.Key, w[0], freshWindow)
				}
			}
			if s.Closer < 0 {
				continue
			}
			finished++
			if len(wins) < 2 || len(wins) > 5 {
				t.Errorf("seed %d session %s: lasted %d windows, want 2–5", seed, s.Key, len(wins))
			}
			closer := fs.Events[s.Closer]
			if closer.K != "ret" || closer.Res != never {
				t.Errorf("seed %d session %s: event %d is not the injected return: %+v", seed, s.Key, s.Closer, closer)
			}
		}
		if finished == 0 {
			t.Fatalf("seed %d: no session finished", seed)
		}

		alerts := newAlertLog()
		srv, err := serve.New(serve.Config{Model: model, Workers: 1, WindowOps: freshWindow, OnVerdict: alerts.onVerdict})
		if err != nil {
			t.Fatal(err)
		}
		conn := srv.NewConn()
		if _, err := conn.IngestBatch(fs.Events); err != nil {
			t.Fatal(err)
		}
		conn.Release()
		sum, err := srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := int(sum.Stats.WindowFlushes); got != flushes {
			t.Errorf("seed %d: the server retired %d windows, the rule predicts %d", seed, got, flushes)
		}
		if len(alerts.n) != finished {
			t.Errorf("seed %d: %d partitions alerted, %d sessions finished", seed, len(alerts.n), finished)
		}
		for _, s := range fs.Sessions {
			if want := map[bool]int{true: 1, false: 0}[s.Closer >= 0]; alerts.n[s.Key] != want {
				t.Errorf("seed %d session %s: %d alerts, want %d", seed, s.Key, alerts.n[s.Key], want)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks the declarations against the limits of the
// benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes; want 6 keys and at most 64 KiB", len(keys), len(data))
	}
	spec := loadRepoSpec(t)
	if n := len(spec.Workloads); n != len(workloads()) {
		t.Errorf("%d workloads declared, %d implemented", n, len(workloads()))
	}
	for i, w := range workloads() {
		if spec.Workloads[i].Name != w.name() {
			t.Errorf("workload %d is declared %q and implemented %q", i, spec.Workloads[i].Name, w.name())
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name(), len(why))
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// TestSmoke runs all six workloads at about 1/50 size, untraced and traced,
// and checks the names they emit against BENCHMARK.json: every workload
// emits every end-to-end metric, every per-layer metric is emitted by at
// least one workload, nothing undeclared is emitted (runWorkload refuses
// that), and every known answer is met.
func TestSmoke(t *testing.T) {
	spec := loadRepoSpec(t)
	cfg := newConfig(1, 0.3, true)
	layerSeen := make(map[string]bool)
	for _, w := range workloads() {
		r, err := runWorkload(w, cfg, spec, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name(), err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s untraced: %d of %d verdicts failed: %v", w.name(), r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range spec.EndToEnd {
			if s, ok := r.Metrics[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (emitted %v), want a positive value", w.name(), m.Name, s.Median, ok)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(spec, false, r)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != r.Attempted || len(line.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: driver line %+v", w.name(), line)
		}

		r, err = runWorkload(w, cfg, spec, newRecorder())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name(), err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced: %d of %d verdicts failed: %v", w.name(), r.Failed, r.Attempted, r.Failures)
		}
		for name := range r.Metrics {
			layerSeen[name] = true
		}
	}
	for _, m := range spec.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("no workload emits per-layer metric %s", m.Name)
		}
	}
}
