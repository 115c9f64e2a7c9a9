package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// config is what a run hands to a workload.
type config struct {
	seed    int64
	seconds float64 // how long the measured region lasts
	smoke   bool    // ~1/50-size inputs, for the tests
	traced  bool    // the run is the traced decomposition, not the untraced region
	workers int     // serve checker workers: max(1, nproc-1), leaving one CPU to the producer
}

func newConfig(seed int64, seconds float64, smoke bool) config {
	w := runtime.NumCPU() - 1
	if w < 1 {
		w = 1
	}
	return config{seed: seed, seconds: seconds, smoke: smoke, workers: w}
}

// pick returns full at normal size and small under -smoke.
func (c config) pick(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

// tally counts verdicts checked against a known answer.
type tally struct {
	attempted, failed int
	notes             []string // the first few failures, for the report
}

// expect records one checked outcome.
func (t *tally) expect(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// passOut is one run of a workload's measured region.
type passOut struct {
	tally
	wall     time.Duration
	ops      int       // completed operations that received a verdict
	verdicts []float64 // time to each verdict, ms
}

// e2e collects the per-pass values of the end-to-end metrics. Every metric
// is computed once per pass, in calibrated time (see calibrator), and
// reported as the median over passes, so one disturbed pass does not move
// the reported value.
type e2e struct {
	tally
	wall, opsPerS, p50 []float64
	raw                []float64 // wall-clock seconds of each pass, uncalibrated
}

// addPass records one pass; factor converts its wall-clock times to
// calibrated time.
func (e *e2e) addPass(p passOut, factor float64) {
	e.add(p.tally)
	wall := p.wall.Seconds() * factor
	e.raw = append(e.raw, p.wall.Seconds())
	e.wall = append(e.wall, wall)
	e.opsPerS = append(e.opsPerS, ratio(float64(p.ops), wall))
	if len(p.verdicts) > 0 {
		e.p50 = append(e.p50, percentile(p.verdicts, 50)*factor)
	}
}

// passPair fills in what every traced run derives from its untraced and its
// traced pass — the cost of tracing, the verdict rate and the tail of the
// time to a verdict — and returns the two passes' combined tally.
func passPair(m map[string]float64, untraced, traced passOut, verdicts int) tally {
	m["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()
	m["checks_per_s"] = ratio(float64(verdicts), untraced.wall.Seconds())
	m["verdict_p90_ms"] = percentile(untraced.verdicts, 90)
	t := untraced.tally
	t.add(traced.tally)
	return t
}

// minPasses is the fewest passes a measured region runs, however slow the
// machine: a median needs three values.
const minPasses = 3

// measurePasses repeats pass for about the given number of seconds: it stops
// once another pass of median length would overrun. The reference kernel is
// timed before and after every pass (and, through tick, inside long ones);
// the pass is calibrated with the samples that fall inside it.
func measurePasses(seconds float64, cal *calibrator, pass func(*recorder) (passOut, error)) (*e2e, error) {
	e := &e2e{}
	start := time.Now()
	cal.sample()
	for n := 0; ; n++ {
		if n >= minPasses && time.Since(start).Seconds()+median(e.raw) > seconds {
			return e, nil
		}
		from := cal.mark()
		p, err := pass(nil)
		if err != nil {
			return nil, err
		}
		cal.sample()
		e.addPass(p, cal.factorSince(from))
	}
}

// workload is one named load shape.
type workload interface {
	name() string
	// setup generates every input from cfg.seed and runs the warm-up. Each
	// call rebuilds everything, so it can be timed repeatedly.
	setup(cfg config) error
	// inputs maps each generated payload to its SHA-256.
	inputs() map[string]string
	// measure runs the untraced measured region for cfg.seconds.
	measure(cfg config, cal *calibrator) (*e2e, error)
	// layers runs the traced decomposition and returns the per-layer
	// metrics this workload measures.
	layers(cfg config, rec *recorder) (map[string]float64, tally, error)
}

func workloads() []workload {
	return []workload{
		&checkWorkload{kind: "check-pass"},
		&checkWorkload{kind: "check-deep"},
		&checkWorkload{kind: "check-hunt"},
		&monitorBatch{},
		&serveReplay{},
		&serveFresh{},
	}
}

// timeSetup runs setup at least five times and for up to about two seconds,
// and returns each duration in calibrated time: short set-ups get more
// repetitions, so their median is as steady as a long one's.
func timeSetup(w workload, cfg config, cal *calibrator) ([]float64, error) {
	var xs []float64
	start := time.Now()
	cal.sample()
	for len(xs) < 5 || (time.Since(start).Seconds() < 2 && len(xs) < 15) {
		from := cal.mark()
		t0 := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		cal.sample()
		xs = append(xs, d*cal.factorSince(from))
		if cfg.smoke {
			break
		}
	}
	return xs, nil
}

// procStats watches the process's memory over one workload's run.
type procStats struct {
	before   runtime.MemStats
	heapPeak uint64
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// startProcStats starts sampling the live heap every 100 ms.
func startProcStats() *procStats {
	p := &procStats{stopCh: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	go func() {
		defer close(p.done)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-p.stopCh:
				return
			case <-tk.C:
				runtime.ReadMemStats(&m)
				p.heapPeak = max(p.heapPeak, m.HeapInuse)
			}
		}
	}()
	return p
}

// stop ends the sampler and waits for it; it may be called more than once.
func (p *procStats) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	<-p.done
}

// metrics stops the sampler and returns the memory metrics.
func (p *procStats) metrics() map[string]float64 {
	p.stop()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	const mb = 1 << 20
	return map[string]float64{
		"proc.heap_peak_mb": float64(max(p.heapPeak, m.HeapInuse)) / mb,
		"proc.alloc_mb":     float64(m.TotalAlloc-p.before.TotalAlloc) / mb,
		"proc.gc_pause_ms":  float64(m.PauseTotalNs-p.before.PauseTotalNs) / 1e6,
	}
}
