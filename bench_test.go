// Benchmarks regenerating the paper's quantitative claims. Each table and
// figure of the evaluation has a corresponding benchmark (or group):
//
//	Table 1  -> BenchmarkTable1Inventory
//	Table 2  -> BenchmarkTable2 (one sub-benchmark per class), plus
//	            BenchmarkFailingVsPassingTestcase for the Section 5.4
//	            observation that failing testcases finish much faster
//	Fig. 1   -> BenchmarkFig1BlockingCollection
//	Fig. 4   -> BenchmarkFig4CounterModelCheck
//	Fig. 7   -> BenchmarkFig7ObservationFile
//	Fig. 9   -> BenchmarkFig9ManualResetEvent
//	Sec. 5.4 -> BenchmarkPhase1SerialEnumeration / BenchmarkPhase2Exploration
//	Sec. 5.6 -> BenchmarkComparisonCheckers
//	ablation -> BenchmarkAblationPreemptionBound, BenchmarkAblationGranularity
//
// Run with: go test -bench=. -benchmem
package lineup_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"lineup"
	"lineup/internal/atomicity"
	"lineup/internal/bench"
	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/race"
	"lineup/internal/sched"
)

func causeCase(b *testing.B, id bench.Cause) bench.CauseCase {
	b.Helper()
	for _, c := range bench.CauseCases() {
		if c.Cause == id {
			return c
		}
	}
	b.Fatalf("cause %s not found", id)
	return bench.CauseCase{}
}

// BenchmarkTable1Inventory regenerates the class inventory of Table 1.
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) != 13 {
			b.Fatalf("expected 13 classes, got %d", len(rows))
		}
	}
}

// BenchmarkTable2 runs the Table 2 methodology (RandomCheck) on every
// class, with a benchmark-friendly 2x3 dimension and reduced sample per
// iteration (the cmd/lineup table2 command runs the paper's full 100
// samples of 3x3). The reported per-op time is the cost of checking
// `samples` random tests of one class at its Table 2 preemption bound.
func BenchmarkTable2(b *testing.B) {
	const samples = 2
	for _, e := range bench.Registry() {
		subjects := []*lineup.Subject{e.Subject}
		if e.Pre != nil {
			subjects = append(subjects, e.Pre)
		}
		for _, sub := range subjects {
			sub := sub
			bound := e.Bound
			b.Run(sub.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
						Rows: 2, Cols: 3, Samples: samples, Seed: 1,
						Options: lineup.Options{PreemptionBound: bound},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFailingVsPassingTestcase quantifies the Section 5.4 observation:
// "As usual, testcases fail much quicker than they pass."
func BenchmarkFailingVsPassingTestcase(b *testing.B) {
	fail := causeCase(b, bench.CauseG) // TCS(Pre) double-completion, fails fast
	b.Run("failing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lineup.Check(fail.Subject, fail.Test, lineup.Options{PreemptionBound: fail.Bound})
			if err != nil || res.Verdict != lineup.Fail {
				b.Fatalf("res=%v err=%v", res.Verdict, err)
			}
		}
	})
	b.Run("passing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lineup.Check(fail.Counterpart, fail.Test, lineup.Options{PreemptionBound: fail.Bound})
			if err != nil || res.Verdict != lineup.Pass {
				b.Fatalf("res=%v err=%v", res.Verdict, err)
			}
		}
	})
}

// BenchmarkFig1BlockingCollection checks the Fig. 1 scenario end to end.
func BenchmarkFig1BlockingCollection(b *testing.B) {
	c := causeCase(b, bench.CauseB)
	for i := 0; i < b.N; i++ {
		res, err := lineup.Check(c.Subject, c.Test, lineup.Options{PreemptionBound: c.Bound})
		if err != nil || res.Verdict != lineup.Fail {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkFig9ManualResetEvent checks the Fig. 9 scenario (which needs a
// deeper preemption bound, see the ablation).
func BenchmarkFig9ManualResetEvent(b *testing.B) {
	c := causeCase(b, bench.CauseA)
	for i := 0; i < b.N; i++ {
		res, err := lineup.Check(c.Subject, c.Test, lineup.Options{PreemptionBound: c.Bound})
		if err != nil || res.Verdict != lineup.Fail {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkFig4CounterModelCheck benchmarks the model-based classic and
// generalized checks on the Fig. 4 counter.
func BenchmarkFig4CounterModelCheck(b *testing.B) {
	inc := lineup.Op{Method: "Inc", Run: func(t *lineup.Thread, o any) string {
		o.(interface{ Inc(*sched.Thread) }).Inc(t)
		return "ok"
	}}
	get := lineup.Op{Method: "Get", Run: func(t *lineup.Thread, o any) string {
		return fmt.Sprint(o.(interface{ Get(*sched.Thread) int }).Get(t))
	}}
	impl := &lineup.Subject{Name: "Counter2", New: func(t *lineup.Thread) any { return collections.NewCounter2(t) }, Ops: []lineup.Op{inc, get}}
	model := &lineup.Subject{Name: "Counter", New: func(t *lineup.Thread) any { return collections.NewCounter(t) }, Ops: []lineup.Op{inc, get}}
	m := &lineup.Test{Rows: [][]lineup.Op{{inc, get}, {inc}}}
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lineup.CheckAgainstModel(impl, model, m, lineup.RefOptions{ClassicOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generalized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lineup.CheckAgainstModel(impl, model, m, lineup.RefOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// queue3x3 is the workload of the Section 5.4/5.5 measurements: a 3x3 test
// over the corrected queue.
func queue3x3() (*lineup.Subject, *lineup.Test) {
	sub, _, _ := bench.Find("ConcurrentQueue")
	enq10, _ := sub.FindOp("Enqueue(10)")
	enq20, _ := sub.FindOp("Enqueue(20)")
	deq, _ := sub.FindOp("TryDequeue()")
	count, _ := sub.FindOp("Count()")
	peek, _ := sub.FindOp("TryPeek()")
	return sub, &lineup.Test{Rows: [][]lineup.Op{
		{enq10, deq, count},
		{enq20, deq, peek},
		{count, enq10, deq},
	}}
}

// BenchmarkPhase1SerialEnumeration measures the cost of synthesizing the
// specification of a 3x3 test (at most 1680 serial interleavings) — the
// paper's "automatic enumeration of a sequential specification is very
// cheap" claim (Section 5.4).
func BenchmarkPhase1SerialEnumeration(b *testing.B) {
	sub, m := queue3x3()
	for i := 0; i < b.N; i++ {
		n := 0
		_, err := core.ForEachSerialExecution(sub, m, core.Options{}, false, func(out *sched.Outcome) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no serial executions")
		}
	}
}

// BenchmarkPhase2Exploration measures the preemption-bounded concurrent
// exploration of the same 3x3 test.
func BenchmarkPhase2Exploration(b *testing.B) {
	sub, m := queue3x3()
	for i := 0; i < b.N; i++ {
		_, err := core.ForEachExecution(sub, m, core.Options{PreemptionBound: 2}, false, func(out *sched.Outcome) bool {
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckFullTest measures a complete two-phase Check of the 3x3
// queue test.
func BenchmarkCheckFullTest(b *testing.B) {
	sub, m := queue3x3()
	for i := 0; i < b.N; i++ {
		res, err := lineup.Check(sub, m, lineup.Options{PreemptionBound: 2})
		if err != nil || res.Verdict != lineup.Pass {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkAblationPreemptionBound sweeps the preemption bound on the 3x3
// queue test, quantifying the exponential growth that motivates bounding
// (Section 4.3).
func BenchmarkAblationPreemptionBound(b *testing.B) {
	sub, m := queue3x3()
	for _, pb := range []int{lineup.NoPreemptions, 1, 2, 3} {
		pb := pb
		name := fmt.Sprintf("PB=%d", pb)
		if pb == lineup.NoPreemptions {
			name = "PB=0"
		}
		b.Run(name, func(b *testing.B) {
			execs := 0
			for i := 0; i < b.N; i++ {
				stats, err := core.ForEachExecution(sub, m, core.Options{PreemptionBound: pb}, false, func(out *sched.Outcome) bool {
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
				execs = stats.Executions
			}
			b.ReportMetric(float64(execs), "schedules")
		})
	}
}

// BenchmarkAblationGranularity compares all-access preemption (the default)
// with CHESS-like sync-only preemption on the same test.
func BenchmarkAblationGranularity(b *testing.B) {
	sub, m := queue3x3()
	for _, g := range []struct {
		name string
		gran sched.Granularity
	}{{"all-accesses", sched.GranAll}, {"sync-only", sched.GranSync}} {
		g := g
		b.Run(g.name, func(b *testing.B) {
			execs := 0
			for i := 0; i < b.N; i++ {
				stats, err := core.ForEachExecution(sub, m, core.Options{PreemptionBound: 2, Granularity: g.gran}, false, func(out *sched.Outcome) bool {
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
				execs = stats.Executions
			}
			b.ReportMetric(float64(execs), "schedules")
		})
	}
}

// BenchmarkComparisonCheckers measures the Section 5.6 comparison: race
// detection plus serializability monitoring over one test's executions.
func BenchmarkComparisonCheckers(b *testing.B) {
	sub, m := queue3x3()
	b.Run("race+atomicity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det := race.NewDetector()
			warnings := 0
			_, err := core.ForEachExecution(sub, m, core.Options{PreemptionBound: 2}, true, func(out *sched.Outcome) bool {
				det.Analyze(out.Trace)
				if w := atomicity.Analyze(out.Trace); w != nil {
					warnings++
				}
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7ObservationFile measures writing (and parsing back) the
// observation file of a checked test.
func BenchmarkFig7ObservationFile(b *testing.B) {
	sub, m := queue3x3()
	res, err := lineup.Check(sub, m, lineup.Options{PreemptionBound: 2, KeepSpec: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obsfile.Write(io.Discard, res.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShrink measures the automatic minimization of a failing 3x3
// test (the paper did this step manually, Section 5.1).
func BenchmarkShrink(b *testing.B) {
	sub, _, _ := bench.Find("Lazy(Pre)")
	value, _ := sub.FindOp("Value()")
	tos, _ := sub.FindOp("ToString()")
	m := &lineup.Test{Rows: [][]lineup.Op{
		{value, tos, value}, {tos, value, tos}, {value, value, tos},
	}}
	for i := 0; i < b.N; i++ {
		_, res, err := lineup.Shrink(sub, m, lineup.Options{})
		if err != nil || res.Verdict != lineup.Fail {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkRandomCheckParallel measures the embarrassingly-parallel
// distribution of Section 4.3: the same sample checked with 1 and with 8
// workers.
func BenchmarkRandomCheckParallel(b *testing.B) {
	sub, _, _ := bench.Find("ConcurrentQueue")
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
					Rows: 2, Cols: 2, Samples: 8, Seed: 1, Workers: workers,
					Options: lineup.Options{PreemptionBound: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBugFindingStrategies compares time-to-first-violation of
// exhaustive preemption-bounded DFS against random-walk and PCT schedule
// sampling (the search-prioritization family of CHESS heuristics the paper
// cites) on the Fig. 9 ManualResetEvent bug, whose depth-4 interleaving is
// the hardest of the seeded defects.
func BenchmarkBugFindingStrategies(b *testing.B) {
	c := causeCase(b, bench.CauseA)
	b.Run("exhaustive-PB4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lineup.Check(c.Subject, c.Test, lineup.Options{PreemptionBound: 4})
			if err != nil || res.Verdict != lineup.Fail {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})
	b.Run("random-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lineup.Check(c.Subject, c.Test, lineup.Options{
				SampleSchedules: 20000, SampleStrategy: sched.StrategyWalk, SampleSeed: int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != lineup.Fail {
				b.Skip("walk sample missed the bug (expected occasionally)")
			}
		}
	})
	b.Run("pct-depth4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lineup.Check(c.Subject, c.Test, lineup.Options{
				SampleSchedules: 20000, SampleStrategy: sched.StrategyPCT,
				PCTDepth: 4, SampleSeed: int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != lineup.Fail {
				b.Skip("pct sample missed the bug (expected occasionally)")
			}
		}
	})
}

// monitorRound appends one round of mutually concurrent operations to the
// event list: every listed thread calls, then every thread returns, so the
// ops within a round overlap pairwise while successive rounds are ordered
// by <H. ops[i] is {name, result} for thread i.
func monitorRound(events []history.Event, next *int, ops [][2]string) []history.Event {
	base := *next
	for th, op := range ops {
		events = append(events, history.Event{Thread: th, Kind: history.Call, Op: op[0], Index: base + th})
	}
	for th, op := range ops {
		events = append(events, history.Event{Thread: th, Kind: history.Return, Op: op[0], Result: op[1], Index: base + th})
	}
	*next = base + len(ops)
	return events
}

// monitorIncHistory builds `rounds` rounds of `threads` concurrent Inc()
// operations followed by a Get() observer reporting one more than the true
// total. The history is non-linearizable, so every search must exhaust the
// whole space to refute it — and because all increments are
// indistinguishable, the memoized search collapses the per-round orderings
// into counter states while naive enumeration replays every one.
func monitorIncHistory(threads, rounds int) *history.History {
	round := make([][2]string, threads)
	for i := range round {
		round[i] = [2]string{"Inc()", "ok"}
	}
	var events []history.Event
	next := 0
	for r := 0; r < rounds; r++ {
		events = monitorRound(events, &next, round)
	}
	events = monitorRound(events, &next, [][2]string{{"Get()", fmt.Sprint(threads*rounds + 1)}})
	return &history.History{Events: events}
}

// monitorSetHistory builds one wide round of 2*keys mutually concurrent set
// operations: each key is Added twice with both calls claiming to have
// changed the set, which no serial order allows. Partitioning reduces the
// refutation to `keys` independent two-op subproblems.
func monitorSetHistory(keys int) *history.History {
	ops := make([][2]string, 0, 2*keys)
	for k := 0; k < keys; k++ {
		op := fmt.Sprintf("Add(k%d)", k)
		ops = append(ops, [2]string{op, "true"}, [2]string{op, "true"})
	}
	next := 0
	return &history.History{Events: monitorRound(nil, &next, ops)}
}

// BenchmarkMonitorVsEnumeration pits the monitor's memoized Wing-Gong
// search (and, on the set model, its P-compositional partitioning) against
// naive permutation enumeration on recorded histories that force a full
// refutation. The gap widens with history width: on 3x3 the memoization
// mostly pays for itself, from 4 threads on it wins outright.
func BenchmarkMonitorVsEnumeration(b *testing.B) {
	counterModel, _ := lineup.BuiltinModel("counter")
	for _, cfg := range []struct {
		name            string
		threads, rounds int
	}{
		{"3x3", 3, 3},
		{"4x3", 4, 3},
		{"4x4", 4, 4},
	} {
		h := monitorIncHistory(cfg.threads, cfg.rounds)
		b.Run(cfg.name+"/memoized", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := lineup.CheckHistory(counterModel, h, lineup.MonitorOptions{})
				if err != nil || out.Linearizable {
					b.Fatalf("out=%+v err=%v", out, err)
				}
			}
		})
		b.Run(cfg.name+"/no-memo", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := lineup.CheckHistory(counterModel, h, lineup.MonitorOptions{NoMemo: true})
				if err != nil || out.Linearizable {
					b.Fatalf("out=%+v err=%v", out, err)
				}
			}
		})
		b.Run(cfg.name+"/naive-enumeration", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := monitor.NaiveCheck(counterModel, h, lineup.MonitorOptions{})
				if err != nil || ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
	setModel, _ := lineup.BuiltinModel("set")
	hset := monitorSetHistory(6)
	b.Run("set6/partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := lineup.CheckHistory(setModel, hset, lineup.MonitorOptions{})
			if err != nil || out.Linearizable || out.Stats.Parts != 6 {
				b.Fatalf("out=%+v err=%v", out, err)
			}
		}
	})
	b.Run("set6/unsplit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := lineup.CheckHistory(setModel, hset, lineup.MonitorOptions{NoPartition: true})
			if err != nil || out.Linearizable {
				b.Fatalf("out=%+v err=%v", out, err)
			}
		}
	})
}

// monitorLongTrace records a linearizable trace of the given number of
// operations as JSONL: threads picked at random call one of next's operations
// or return from the one they have open, with the result the model gives at
// that moment, so the order of the returns is a witness.
func monitorLongTrace(b *testing.B, model *lineup.Model, seed int64, threads, ops int, next func(rng *rand.Rand, state any) string) []byte {
	rng := rand.New(rand.NewSource(seed))
	h := &history.History{}
	state := model.Init()
	open := make(map[int]history.Event)
	for started := 0; started < ops || len(open) > 0; {
		t := rng.Intn(threads)
		if call, busy := open[t]; busy {
			res, after, err := model.Step(state, call.Op)
			if err != nil {
				b.Fatal(err)
			}
			state = after
			call.Kind, call.Result = history.Return, res
			h.Events = append(h.Events, call)
			delete(open, t)
		} else if started < ops {
			open[t] = history.Event{Thread: t, Kind: history.Call, Op: next(rng, state), Index: started}
			h.Events = append(h.Events, open[t])
			started++
		}
	}
	var buf bytes.Buffer
	if err := obsfile.WriteTrace(&buf, h); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkMonitorLongTrace is `lineup monitor` on a recorded trace, one
// layer at a time so each can be profiled without the harness: decoding the
// JSONL (obsfile.ReadTrace) and the witness search (monitor.Check), on a
// 1 000-operation queue trace — one part, three overlapping threads, at most
// eight elements queued — and a 20 000-operation set trace that splits into
// 64 parts. The harness's monitor-batch workload measures the two together.
func BenchmarkMonitorLongTrace(b *testing.B) {
	queueModel, _ := lineup.BuiltinModel("queue")
	setModel, _ := lineup.BuiltinModel("set")
	enqueued := 0
	for _, tr := range []struct {
		name    string
		model   *lineup.Model
		payload []byte
	}{
		{"queue1000", queueModel, monitorLongTrace(b, queueModel, 1, 3, 1000, func(rng *rand.Rand, state any) string {
			if rng.Intn(2) == 0 && len(state.([]string)) < 8 {
				enqueued++
				return fmt.Sprintf("Enqueue(%d)", enqueued)
			}
			return "TryDequeue()"
		})},
		{"set20000", setModel, monitorLongTrace(b, setModel, 2, 4, 20000, func(rng *rand.Rand, _ any) string {
			return fmt.Sprintf("%s(%d)", []string{"Add", "Remove", "Contains"}[rng.Intn(3)], rng.Intn(64))
		})},
	} {
		h, err := obsfile.ReadTrace(bytes.NewReader(tr.payload))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tr.name+"/read", func(b *testing.B) {
			b.SetBytes(int64(len(tr.payload)))
			for i := 0; i < b.N; i++ {
				if _, err := obsfile.ReadTrace(bytes.NewReader(tr.payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tr.name+"/check", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := lineup.CheckHistory(tr.model, h, lineup.MonitorOptions{})
				if err != nil || !out.Linearizable {
					b.Fatalf("out=%+v err=%v", out, err)
				}
			}
		})
	}
}

// BenchmarkDistWallRatio is the measurement ROADMAP item 8's `dist` bullet
// asks for: the harness's scaled check-deep (Fig. 9 corrected, an IsSet
// observer on a third thread, preemption bound 3, sleep sets) through the
// sequential explorer, the in-process explorer with two workers, and the
// coordinator with two workers, in memory and journaling to a directory. One
// iteration runs every arm once, starting one arm further along each time,
// so `-benchtime 10x` is ten alternating runs; the reported metrics are the
// per-arm medians and dist's two ratios to the sequential run.
func BenchmarkDistWallRatio(b *testing.B) {
	a := causeCase(b, bench.CauseA)
	isSet, ok := a.Subject.FindOp("IsSet()")
	if !ok {
		b.Fatal("ManualResetEvent has no IsSet()")
	}
	m := &core.Test{Rows: append(append([][]core.Op(nil), a.Test.Rows...), []core.Op{isSet})}
	opts := core.Options{PreemptionBound: 3, Reduction: sched.ReductionSleep}
	check := func(workers int) func() (*core.Result, error) {
		o := opts
		o.Workers = workers
		return func() (*core.Result, error) { return core.Check(a.Counterpart, m, o) }
	}
	units := 0
	viaDist := func(journal bool) func() (*core.Result, error) {
		return func() (*core.Result, error) {
			cfg := dist.Config{Subject: a.Counterpart, Test: m, Options: opts, Workers: 2}
			if journal {
				cfg.Dir = b.TempDir()
			}
			res, st, err := dist.Run(context.Background(), cfg)
			units = st.Units
			return res, err
		}
	}
	arms := []struct {
		name string
		run  func() (*core.Result, error)
	}{
		{"check_w1_s", check(1)}, {"check_w2_s", check(2)}, {"dist_mem_w2_s", viaDist(false)}, {"dist_dir_w2_s", viaDist(true)},
	}
	secs := make([][]float64, len(arms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range arms {
			j := (i + k) % len(arms)
			start := time.Now()
			res, err := arms[j].run()
			secs[j] = append(secs[j], time.Since(start).Seconds())
			if err != nil || res.Verdict != core.Pass {
				b.Fatalf("%s: %v, %v", arms[j].name, res, err)
			}
		}
	}
	med := make([]float64, len(arms))
	for j, s := range secs {
		sort.Float64s(s)
		med[j] = (s[(len(s)-1)/2] + s[len(s)/2]) / 2
		b.ReportMetric(med[j], arms[j].name)
	}
	b.ReportMetric(med[2]/med[0], "dist_mem_wall_ratio")
	b.ReportMetric(med[3]/med[0], "dist_dir_wall_ratio")
	b.ReportMetric(float64(units), "units")
}
