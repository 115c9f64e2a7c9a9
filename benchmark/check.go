package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// want is the known answer of one check.
type want struct {
	fail        bool
	kind        core.ViolationKind // when fail
	full, stuck int                // distinct phase-2 histories of a PASS; -1 when not pinned
}

// checkItem is one test handed to core.Check.
type checkItem struct {
	id    string
	sub   *core.Subject
	test  *core.Test
	opts  core.Options
	model *monitor.Model // executable model of the class, when one exists
	want  *want          // nil: no known answer for this seed
}

// checkWorkload is check-pass, check-deep or check-hunt: a list of tests,
// each checked once per pass with the sequential explorer and the spec
// witness backend.
type checkWorkload struct {
	kind  string
	items []checkItem
	// deepPB3 is check-deep's scenario at preemption bound 3, on which the
	// traced run compares the explorer's variants.
	deepPB3 *checkItem
	cal     *calibrator // set while the untraced region runs
}

func (w *checkWorkload) name() string { return w.kind }

func mustFind(class string) (*core.Subject, *bench.Entry) {
	sub, e, ok := bench.Find(class)
	if !ok {
		panic("benchmark: class " + class + " is not in the registry")
	}
	return sub, e
}

// modelFor returns the executable sequential model of a registry class. The
// models are used only to cross-check verdicts when goldens are recorded and
// to time the monitor on explorer-sized histories.
func modelFor(class string) *monitor.Model {
	switch strings.TrimSuffix(class, "(Pre)") {
	case "ConcurrentQueue":
		return monitor.QueueModel()
	case "ConcurrentStack":
		return monitor.StackModel()
	case "ManualResetEvent":
		return monitor.MREModel()
	}
	return nil
}

// huntClasses are the eight defect-seeded classes plus the two corrected
// classes that fail by design.
var huntClasses = []string{
	"Lazy(Pre)", "ManualResetEvent(Pre)", "SemaphoreSlim(Pre)", "CountdownEvent(Pre)",
	"ConcurrentQueue(Pre)", "ConcurrentStack(Pre)", "BlockingCollection(Pre)",
	"TaskCompletionSource(Pre)", "ConcurrentBag", "Barrier",
}

func causeCase(c bench.Cause) bench.CauseCase {
	for _, cc := range bench.CauseCases() {
		if cc.Cause == c {
			return cc
		}
	}
	panic("benchmark: no cause case " + string(c))
}

// randomItems draws n balanced tests on one class, checked at the class's
// preemption bound.
func randomItems(cfg config, salt int64, class string, n, threads, ops int) []checkItem {
	sub, e := mustFind(class)
	rng := newRand(cfg.seed, salt)
	items := make([]checkItem, n)
	for i := range items {
		items[i] = checkItem{
			id:    fmt.Sprintf("%s#%d", class, i),
			sub:   sub,
			test:  balancedTest(rng, sub.Ops, threads, ops),
			opts:  core.Options{PreemptionBound: e.Bound},
			model: modelFor(class),
		}
	}
	return items
}

// build generates the workload's tests, without known answers.
func (w *checkWorkload) build(cfg config) {
	w.items = nil
	switch w.kind {
	case "check-pass":
		// The corrected classes are linearizable, so every verdict is PASS
		// and the whole schedule space is explored.
		for i, class := range []string{"ConcurrentQueue", "ConcurrentStack"} {
			w.items = append(w.items, randomItems(cfg, 10+int64(i), class, 1, 3, cfg.pick(3, 2))...)
		}
		for i := range w.items {
			w.items[i].want = &want{full: -1, stuck: -1}
		}
	case "check-deep":
		// Fig. 9 (cause A) with an IsSet observer on a third thread. The
		// issue's second Wait thread needs 14 s per pass on the reference
		// box; the observer keeps the shape — phase 1 negligible, almost
		// every execution a dedup hit, sleep sets on — in 2.4 s.
		a := causeCase(bench.CauseA)
		rows := append([][]core.Op(nil), a.Test.Rows...)
		if !cfg.smoke {
			isSet, ok := a.Subject.FindOp("IsSet()")
			if !ok {
				panic("benchmark: ManualResetEvent has no IsSet()")
			}
			rows = append(rows, []core.Op{isSet})
		}
		test := &core.Test{Rows: rows}
		opts := core.Options{PreemptionBound: a.Bound, Reduction: sched.ReductionSleep}
		exhaust := opts
		exhaust.ExhaustPhase2 = true
		w.items = []checkItem{
			{id: "fig9/corrected", sub: a.Counterpart, test: test, opts: opts, model: modelFor(a.Counterpart.Name),
				want: &want{full: -1, stuck: -1}},
			{id: "fig9/pre", sub: a.Subject, test: test, opts: exhaust, model: modelFor(a.Subject.Name),
				want: &want{fail: true, kind: a.WantKind}},
		}
		pb3 := w.items[0]
		pb3.opts.PreemptionBound = 3
		w.deepPB3 = &pb3
	case "check-hunt":
		for _, cc := range bench.CauseCases() {
			w.items = append(w.items, checkItem{
				id: "cause/" + string(cc.Cause), sub: cc.Subject, test: cc.Test,
				opts: core.Options{PreemptionBound: cc.Bound}, model: modelFor(cc.Subject.Name),
				want: &want{fail: true, kind: cc.WantKind},
			})
		}
		// 2×3 tests, except on the two classes whose 2×3 tests cost 10–20
		// times the others' (ManualResetEvent(Pre) runs at PB=4, the bag has
		// many sync points): at 2×3 they are 70% of the wall time, and their
		// cost varies enough from seed to seed to move the total by ±15%.
		n := cfg.pick(30, 3)
		for i, class := range huntClasses {
			ops := 3
			if class == "ManualResetEvent(Pre)" || class == "ConcurrentBag" {
				ops = 2
			}
			w.items = append(w.items, randomItems(cfg, 100+int64(i), class, n, 2, ops)...)
		}
	}
}

func (w *checkWorkload) setup(cfg config) error {
	w.build(cfg)
	if !cfg.smoke {
		applyGolden(w.kind, cfg.seed, w.items)
	}
	// Warm-up: the same classes on tests a tenth the size.
	warm := &checkWorkload{kind: w.kind}
	small := cfg
	small.smoke = true
	warm.build(small)
	for _, it := range warm.items {
		if _, err := core.Check(it.sub, it.test, it.opts); err != nil {
			return fmt.Errorf("%s warm-up %s: %w", w.kind, it.id, err)
		}
	}
	return nil
}

func (w *checkWorkload) inputs() map[string]string {
	var b strings.Builder
	for _, it := range w.items {
		b.WriteString(it.id + " " + it.sub.Name + "\n" + it.test.String())
	}
	return map[string]string{"tests": sha([]byte(b.String()))}
}

// outcome renders a result the way goldens store it.
func outcome(res *core.Result) string {
	if res.Verdict == core.Fail {
		return fmt.Sprintf("F/%d", int(res.Violation.Kind))
	}
	return fmt.Sprintf("P/%d/%d", res.Phase2.Histories, res.Phase2.Stuck)
}

// judge compares a result with the item's known answer.
func (it *checkItem) judge(t *tally, res *core.Result) {
	wt := it.want
	if wt == nil {
		// No known answer for this seed: the check still has to finish
		// without a search error, which the caller has established.
		t.expect(true, "")
		return
	}
	switch {
	case wt.fail:
		t.expect(res.Verdict == core.Fail && res.Violation.Kind == wt.kind,
			"%s: got %s, want FAIL/%d", it.id, outcome(res), int(wt.kind))
	case wt.full >= 0:
		t.expect(res.Verdict == core.Pass && res.Phase2.Histories == wt.full && res.Phase2.Stuck == wt.stuck,
			"%s: got %s, want P/%d/%d", it.id, outcome(res), wt.full, wt.stuck)
	default:
		t.expect(res.Verdict == core.Pass, "%s: got %s, want PASS", it.id, outcome(res))
	}
}

// itemSpans are the span ids of one traced check.
type itemSpans struct{ check, phase1, phase2 int }

// run checks one item. Untraced it is core.Check; traced it is the same two
// calls core.Check makes, with a span around each.
func (it *checkItem) run(rec *recorder) (*core.Result, itemSpans, error) {
	if rec == nil {
		res, err := core.Check(it.sub, it.test, it.opts)
		return res, itemSpans{}, err
	}
	sp := itemSpans{check: rec.start("core.check", it.id, -1)}
	defer rec.end(sp.check)
	sp.phase1 = rec.start("core.phase1", it.id, sp.check)
	spec, p1, err := core.SynthesizeSpec(it.sub, it.test, it.opts)
	rec.end(sp.phase1)
	if err != nil {
		return nil, sp, err
	}
	sp.phase2 = rec.start("core.phase2", it.id, sp.check)
	res, err := core.CheckAgainstSpec(it.sub, it.test, spec, it.opts)
	rec.end(sp.phase2)
	if err != nil {
		return nil, sp, err
	}
	res.Phase1 = p1
	return res, sp, nil
}

type checked struct {
	res *core.Result
	sp  itemSpans
}

// passDetail runs every item once and keeps the results.
func (w *checkWorkload) passDetail(rec *recorder) (passOut, []checked, error) {
	var out passOut
	all := make([]checked, len(w.items))
	sw := w.cal.stopwatch()
	for i := range w.items {
		it := &w.items[i]
		t0 := time.Now()
		res, sp, err := it.run(rec)
		if err != nil {
			return out, nil, fmt.Errorf("%s %s: %w", w.kind, it.id, err)
		}
		out.verdicts = append(out.verdicts, time.Since(t0).Seconds()*1000)
		out.ops += it.test.NumOps()
		it.judge(&out.tally, res)
		all[i] = checked{res, sp}
		w.cal.tick()
	}
	out.wall = sw.elapsed()
	return out, all, nil
}

func (w *checkWorkload) pass(rec *recorder) (passOut, error) {
	out, _, err := w.passDetail(rec)
	return out, err
}

func (w *checkWorkload) measure(cfg config, cal *calibrator) (*e2e, error) {
	w.cal = cal
	defer func() { w.cal = nil }()
	return measurePasses(cfg.seconds, cal, w.pass)
}

func noVisit(*sched.Outcome) bool { return true }

// layers decomposes the check by re-execution: an explore-only run of each
// phase (no-op visitor) is recorded as a child of the phase's span, so the
// phase's self time is what core adds on top of the scheduler — spec
// synthesis in phase 1; dedup, materialisation and witness search in phase 2.
func (w *checkWorkload) layers(cfg config, rec *recorder) (map[string]float64, tally, error) {
	m := make(map[string]float64)
	untraced, err := w.pass(nil)
	if err != nil {
		return nil, tally{}, err
	}
	traced, all, err := w.passDetail(rec)
	if err != nil {
		return nil, tally{}, err
	}
	t := passPair(m, untraced, traced, len(w.items))

	var p1, p2 core.PhaseStats
	for _, c := range all {
		p1.Executions += c.res.Phase1.Executions
		p2.Executions += c.res.Phase2.Executions
		p2.Histories += c.res.Phase2.Histories
		p2.Stuck += c.res.Phase2.Stuck
		p2.DedupHits += c.res.Phase2.DedupHits
		p2.Pruned += c.res.Phase2.Pruned
	}
	var serialExecs, concExecs int
	var mem0, mem1 runtime.MemStats
	var mallocs, bytes uint64
	for i := range w.items {
		it := &w.items[i]
		c := all[i]
		id := rec.start("sched.serial", it.id, c.sp.phase1)
		st, err := core.ForEachSerialExecution(it.sub, it.test, it.opts, false, noVisit)
		rec.end(id)
		if err != nil {
			return nil, t, fmt.Errorf("%s %s: serial re-execution: %w", w.kind, it.id, err)
		}
		serialExecs += st.Executions
		if c.res.Phase2.Executions == 0 {
			continue // nondeterministic spec: phase 2 never explored
		}
		// A check that stopped at its first violation explored a prefix of
		// the schedule space; replay exactly that prefix.
		left := c.res.Phase2.Executions
		runtime.ReadMemStats(&mem0)
		id = rec.start("sched.conc", it.id, c.sp.phase2)
		st, err = core.ForEachExecution(it.sub, it.test, it.opts, false, func(*sched.Outcome) bool {
			left--
			return left > 0
		})
		rec.end(id)
		runtime.ReadMemStats(&mem1)
		if err != nil {
			return nil, t, fmt.Errorf("%s %s: concurrent re-execution: %w", w.kind, it.id, err)
		}
		concExecs += st.Executions
		mallocs += mem1.Mallocs - mem0.Mallocs
		bytes += mem1.TotalAlloc - mem0.TotalAlloc
	}
	self := rec.selfTimes()
	ph1, ph2 := rec.total("core.phase1").Seconds(), rec.total("core.phase2").Seconds()
	m["core.phase1_s"] = ph1
	m["core.phase2_s"] = ph2
	m["core.phase1_share"] = ratio(ph1, ph1+ph2)
	m["core.phase1_execs"] = float64(p1.Executions)
	m["core.phase2_execs"] = float64(p2.Executions)
	m["core.histories"] = float64(p2.Histories)
	m["core.stuck_histories"] = float64(p2.Stuck)
	m["core.dedup_hit_ratio"] = ratio(float64(p2.DedupHits), float64(p2.Executions))
	m["core.phase1_self_s"] = self["core.phase1"].Seconds()
	m["core.phase2_self_s"] = self["core.phase2"].Seconds()
	m["sched.execs_serial"] = float64(serialExecs)
	m["sched.serial_exec_us"] = ratio(rec.total("sched.serial").Seconds()*1e6, float64(serialExecs))
	m["sched.execs_conc"] = float64(concExecs)
	m["sched.conc_exec_us"] = ratio(rec.total("sched.conc").Seconds()*1e6, float64(concExecs))
	m["sched.allocs_per_exec"] = ratio(float64(mallocs), float64(concExecs))
	m["sched.bytes_per_exec"] = ratio(float64(bytes), float64(concExecs))
	m["sched.pruned_ratio"] = ratio(float64(p2.Pruned), float64(p2.Pruned+p2.Executions))

	switch w.kind {
	case "check-pass":
		err = w.historyLayers(rec, m)
	case "check-deep":
		if err = w.stuckWitnessLayer(rec, m); err == nil {
			err = w.explorerVariants(rec, m)
		}
	}
	return m, t, err
}

// timeEach runs f on every element and returns the mean in microseconds.
func timeEach[T any](xs []T, f func(T)) float64 {
	start := time.Now()
	for _, x := range xs {
		f(x)
	}
	return ratio(time.Since(start).Seconds()*1e6, float64(len(xs)))
}

// historyLayers times the history, monitor and fast-monitor layers on the
// histories the explorer produces for check-pass's tests: spec insertion on
// the distinct serial histories, spec lookup on the distinct concurrent
// ones, and — where the class has an executable model that knows every
// operation of the test, which today is the queue — WGL and the fast
// monitor on the same concurrent histories.
func (w *checkWorkload) historyLayers(rec *recorder, m map[string]float64) error {
	var addUS, witUS, wglUS, fastUS []float64
	var specSize, fastHits, fastTried, fastOps int
	for i := range w.items {
		it := &w.items[i]
		seen := make(map[string]bool)
		var serial []*history.SerialHistory
		var convErr error
		_, err := core.ForEachSerialExecution(it.sub, it.test, it.opts, false, func(out *sched.Outcome) bool {
			h, err := core.OutcomeHistory(out)
			if err != nil {
				convErr = err
				return false
			}
			if s := history.ToSerial(h); !seen[s.Key()] {
				seen[s.Key()] = true
				serial = append(serial, s)
			}
			return true
		})
		if err == nil {
			err = convErr
		}
		if err != nil {
			return fmt.Errorf("check-pass %s: collecting serial histories: %w", it.id, err)
		}
		spec := history.NewSpec()
		id := rec.start("history.spec_add", it.id, -1)
		addUS = append(addUS, timeEach(serial, spec.Add))
		rec.end(id)
		specSize += spec.NumFull() + spec.NumStuck()

		var conc []*history.History
		err = core.ExploreHistories(it.sub, it.test, it.opts, func(h *history.History) bool {
			if !h.Stuck {
				conc = append(conc, h)
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("check-pass %s: collecting concurrent histories: %w", it.id, err)
		}
		missing := 0
		id = rec.start("history.witness_full", it.id, -1)
		witUS = append(witUS, timeEach(conc, func(h *history.History) {
			if _, ok := spec.WitnessFull(h); !ok {
				missing++
			}
		}))
		rec.end(id)
		if missing > 0 {
			return fmt.Errorf("check-pass %s: %d explorer histories have no witness in the re-synthesized spec", it.id, missing)
		}
		if it.model == nil || !modelKnows(it.model, it.test) {
			continue
		}
		var monErr error
		id = rec.start("monitor.check", it.id, -1)
		wglUS = append(wglUS, timeEach(conc, func(h *history.History) {
			out, err := monitor.Check(it.model, h, monitor.Options{})
			if err == nil && !out.Linearizable {
				err = errors.New("the model rejects a history of the corrected class")
			}
			if err != nil && monErr == nil {
				monErr = err
			}
		}))
		rec.end(id)
		if monErr != nil {
			return fmt.Errorf("check-pass %s: monitor on explorer histories: %w", it.id, monErr)
		}
		kind, ok := fast.KindFor(it.model.Name)
		if !ok {
			continue
		}
		id = rec.start("fast.check", it.id, -1)
		us := timeEach(conc, func(h *history.History) {
			if _, err := fast.Check(kind, h); err == nil {
				fastHits++
			}
			fastOps += len(h.Events) / 2
		})
		rec.end(id)
		fastUS = append(fastUS, us*float64(len(conc)))
		fastTried += len(conc)
	}
	m["history.spec_add_us"] = median(addUS)
	m["history.spec_size"] = float64(specSize)
	m["history.witness_full_us"] = median(witUS)
	m["monitor.wgl_us_per_history.explorer"] = median(wglUS)
	m["fast.hit_ratio.explorer"] = ratio(float64(fastHits), float64(fastTried))
	m["fast.us_per_op"] = ratio(sum(fastUS), float64(fastOps))
	return nil
}

// modelKnows reports whether the model can step every operation of the test.
func modelKnows(model *monitor.Model, test *core.Test) bool {
	for _, row := range test.Rows {
		for _, op := range row {
			if _, _, err := model.Step(model.Init(), op.Name()); errors.Is(err, monitor.ErrUnknownOp) {
				return false
			}
		}
	}
	return true
}

// stuckWitnessLayer times the stuck-witness lookup on the stuck histories of
// the defect-seeded check.
func (w *checkWorkload) stuckWitnessLayer(rec *recorder, m map[string]float64) error {
	it := &w.items[1]
	spec, _, err := core.SynthesizeSpec(it.sub, it.test, it.opts)
	if err != nil {
		return err
	}
	var stuck []*history.History
	err = core.ExploreHistories(it.sub, it.test, it.opts, func(h *history.History) bool {
		if h.Stuck {
			stuck = append(stuck, h)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("check-deep: collecting stuck histories: %w", err)
	}
	id := rec.start("history.witness_stuck", it.id, -1)
	m["history.witness_stuck_us"] = timeEach(stuck, func(h *history.History) {
		for _, e := range h.Pending() {
			spec.WitnessStuck(h, e)
		}
	})
	rec.end(id)
	return nil
}

// explorerVariants runs check-deep's corrected scenario at preemption bound
// 3 through the explorer's other drivers and reports each as a ratio to the
// sequential sleep-set run. Every variant runs three times, interleaved, and
// is represented by its median, because one run is a few hundred
// milliseconds. Workers is nproc; on one or two CPUs the parallel and
// distributed ratios say what the machinery costs, not how it scales.
func (w *checkWorkload) explorerVariants(rec *recorder, m map[string]float64) error {
	it := w.deepPB3
	check := func(opts core.Options) (*core.Result, error) { return core.Check(it.sub, it.test, opts) }
	none, par, tel := it.opts, it.opts, it.opts
	none.Reduction = sched.ReductionNone
	par.Workers = runtime.NumCPU()
	var distStats dist.Stats
	variants := []struct {
		name string
		run  func() (*core.Result, error)
	}{
		{"variant.sleep", func() (*core.Result, error) { return check(it.opts) }},
		{"variant.none", func() (*core.Result, error) { return check(none) }},
		{"variant.parallel", func() (*core.Result, error) { return check(par) }},
		{"variant.telemetry", func() (*core.Result, error) {
			tel.Telemetry = telemetry.New()
			return check(tel)
		}},
		{"variant.dist", func() (*core.Result, error) {
			res, st, err := dist.Run(context.Background(), dist.Config{
				Subject: it.sub, Test: it.test, Options: it.opts, Workers: runtime.NumCPU(),
			})
			distStats = st
			return res, err
		}},
	}
	secs := make(map[string][]float64)
	for rep := 0; rep < 3; rep++ {
		for _, v := range variants {
			id := rec.start(v.name, it.id, -1)
			res, err := v.run()
			d := rec.end(id)
			if err == nil && res.Verdict != core.Pass {
				err = fmt.Errorf("verdict %s, want PASS", res.Verdict)
			}
			if err != nil {
				return fmt.Errorf("check-deep %s: %w", v.name, err)
			}
			secs[v.name] = append(secs[v.name], d.Seconds())
		}
	}
	base := median(secs["variant.sleep"])
	m["sched.sleep_speedup"] = ratio(median(secs["variant.none"]), base)
	m["sched.par_wall_ratio"] = ratio(median(secs["variant.parallel"]), base)
	m["telemetry.overhead_pct"] = 100 * (median(secs["variant.telemetry"]) - base) / base
	m["dist.wall_ratio"] = ratio(median(secs["variant.dist"]), base)
	m["dist.units"] = float64(distStats.Units)
	m["dist.retries"] = float64(distStats.Retries)
	return nil
}

// crossCheck compares a Line-Up verdict with the model-replay backend when
// goldens are recorded. A FAIL proves the class is not linearizable with
// respect to any deterministic specification, so the model must reject some
// history too; a PASS of a corrected class must be a PASS against the model.
// A PASS of a defect-seeded class implies nothing about the model.
func (it *checkItem) crossCheck(res *core.Result) error {
	if it.model == nil || !modelKnows(it.model, it.test) {
		return nil
	}
	ref, err := core.CheckWithMonitor(it.sub, it.model, it.test, core.RefOptions{Options: it.opts})
	if err != nil {
		return fmt.Errorf("%s: model cross-check: %w", it.id, err)
	}
	corrected := !strings.HasSuffix(it.sub.Name, "(Pre)")
	if (res.Verdict == core.Fail && ref.Verdict == core.Pass) ||
		(corrected && res.Verdict == core.Pass && ref.Verdict == core.Fail) {
		return fmt.Errorf("%s: Line-Up says %s, the %s model says %s", it.id, res.Verdict, it.model.Name, ref.Verdict)
	}
	return nil
}
