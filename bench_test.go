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
//	ablation -> BenchmarkAblationPreemptionBound
//
// Run with: go test -bench=. -benchmem
package lineup_test

import (
	"bytes"
	"context"
	"errors"
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
	"lineup/internal/monitor/fast"
	"lineup/internal/obsfile"
	"lineup/internal/race"
	"lineup/internal/sched"
	"lineup/internal/subjects"
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

// BenchmarkFig4CounterModelCheck benchmarks the classic and generalized
// checks of the Fig. 4 counter against the executable counter model.
func BenchmarkFig4CounterModelCheck(b *testing.B) {
	inc := lineup.Op{Method: "Inc", Run: func(t *lineup.Thread, o any) string {
		o.(interface{ Inc(*sched.Thread) }).Inc(t)
		return "ok"
	}}
	get := lineup.Op{Method: "Get", Run: func(t *lineup.Thread, o any) string {
		return fmt.Sprint(o.(interface{ Get(*sched.Thread) int }).Get(t))
	}}
	impl := &lineup.Subject{Name: "Counter2", New: func(t *lineup.Thread) any { return collections.NewCounter2(t) }, Ops: []lineup.Op{inc, get}}
	model, _ := lineup.BuiltinModel("counter")
	m := &lineup.Test{Rows: [][]lineup.Op{{inc, get}, {inc}}}
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lineup.CheckWithMonitor(impl, model, m, lineup.RefOptions{ClassicOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generalized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lineup.CheckWithMonitor(impl, model, m, lineup.RefOptions{}); err != nil {
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
	spec, _, err := core.SynthesizeSpec(sub, m, core.Options{PreemptionBound: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obsfile.Write(io.Discard, spec); err != nil {
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
					Rows: 2, Cols: 2, Samples: 8, Seed: 1,
					Options: lineup.Options{PreemptionBound: 2, Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBugFindingStrategies measures the time to a first violation of
// the ways this repo finds a bug. exhaustive-PB4 is the paper's phase 2 on the
// Fig. 9 ManualResetEvent test, whose depth-4 interleaving is the hardest of
// the seeded defects. generate/<class> is coverage-guided generation
// (Generate) and random+shrink/<class> is RandomCheck (Fig. 8) of 3x3 tests
// stopped at the first failing one, then Shrink, so that both end with a
// small failing test; both check up to 600 tests, one worker, at the class's
// bound, on the (Pre) subjects of internal/subjects and of Table 2. Each of
// those arms reports the median over seeds 1-5 of the time to the violation
// (a seed that misses counts at the time its budget took) and the number of
// seeds that missed. Run with -benchtime 1x; DESIGN.md §6 "Generation stays,
// by measurement" states the rule these numbers are held to.
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
	type class struct {
		sub   *lineup.Subject
		bound int
	}
	var classes []class
	for _, e := range subjects.Registry() {
		classes = append(classes, class{e.Pre, e.Bound})
	}
	for _, e := range bench.Registry() {
		if e.Pre != nil {
			classes = append(classes, class{e.Pre, e.Bound})
		}
	}
	const budget = 600
	for _, cl := range classes {
		opts := lineup.Options{PreemptionBound: cl.bound, Workers: 1}
		b.Run("generate/"+cl.sub.Name, func(b *testing.B) {
			timeToViolation(b, func(seed int64) (bool, error) {
				res, err := lineup.Generate(cl.sub, lineup.GenOptions{Options: opts, Seed: seed, Budget: budget})
				return err == nil && res.Failed != nil, err
			})
		})
		b.Run("random+shrink/"+cl.sub.Name, func(b *testing.B) {
			timeToViolation(b, func(seed int64) (bool, error) {
				sum, err := lineup.RandomCheck(cl.sub, nil, lineup.RandomOptions{
					Options: opts, Rows: 3, Cols: 3, Samples: budget, Seed: seed, StopAtFirstFailure: true,
				})
				if err != nil || sum.FirstFailure == nil {
					return false, err
				}
				_, res, err := lineup.Shrink(cl.sub, sum.FirstFailure.Test, opts)
				return err == nil && res.Verdict == lineup.Fail, err
			})
		})
	}
}

// timeToViolation runs find at seeds 1-5 on every iteration and reports the
// median time a seed took and how many seeds found no violation.
func timeToViolation(b *testing.B, find func(seed int64) (bool, error)) {
	for i := 0; i < b.N; i++ {
		var secs []float64
		misses := 0
		for seed := int64(1); seed <= 5; seed++ {
			start := time.Now()
			found, err := find(seed)
			if err != nil {
				b.Fatalf("seed %d: %v", seed, err)
			}
			secs = append(secs, time.Since(start).Seconds())
			if !found {
				b.Logf("seed %d: no violation", seed)
				misses++
			}
		}
		sort.Float64s(secs)
		b.ReportMetric(secs[len(secs)/2], "s/violation")
		b.ReportMetric(float64(misses), "misses")
	}
}

// monitorLongTrace records a linearizable trace of the given number of
// operations as JSONL: threads picked at random call one of next's operations
// or return from the one they have open, with the result the model gives at
// that moment, so the order of the returns is a witness.
func monitorLongTrace(b *testing.B, model *lineup.Model, seed int64, threads, ops int, next func(rng *rand.Rand, state string) string) []byte {
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

// longTrace is one recorded trace of the two `lineup monitor` layer
// benchmarks.
type longTrace struct {
	name    string
	model   *lineup.Model
	payload []byte
}

// longTraces are a 1 000-operation queue trace — one part, three overlapping
// threads, at most eight elements queued — and a 20 000-operation set trace
// that splits into 64 parts.
func longTraces(b *testing.B) []longTrace {
	queueModel, _ := lineup.BuiltinModel("queue")
	setModel, _ := lineup.BuiltinModel("set")
	enqueued := 0
	return []longTrace{
		{"queue1000", queueModel, monitorLongTrace(b, queueModel, 1, 3, 1000, func(rng *rand.Rand, state string) string {
			if rng.Intn(2) == 0 && lineup.ModelList(state).Len() < 8 {
				enqueued++
				return fmt.Sprintf("Enqueue(%d)", enqueued)
			}
			return "TryDequeue()"
		})},
		{"set20000", setModel, monitorLongTrace(b, setModel, 2, 4, 20000, func(rng *rand.Rand, _ string) string {
			return fmt.Sprintf("%s(%d)", []string{"Add", "Remove", "Contains"}[rng.Intn(3)], rng.Intn(64))
		})},
	}
}

// BenchmarkReadTrace is the first layer of `lineup monitor` on a recorded
// trace, decoding the JSONL (obsfile.ReadTrace), alone so it can be profiled
// without the harness; it reports ns/event beside B/op and allocs/op.
func BenchmarkReadTrace(b *testing.B) {
	for _, tr := range longTraces(b) {
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tr.payload)))
			events := 0
			for i := 0; i < b.N; i++ {
				h, err := obsfile.ReadTrace(bytes.NewReader(tr.payload))
				if err != nil {
					b.Fatal(err)
				}
				events += len(h.Events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkMonitorLongTrace is the second layer of `lineup monitor` on a
// recorded trace, the witness search (monitor.Check), alone so it can be
// profiled without the harness. The harness's monitor-batch workload
// measures the two layers together.
func BenchmarkMonitorLongTrace(b *testing.B) {
	for _, tr := range longTraces(b) {
		h, err := obsfile.ReadTrace(bytes.NewReader(tr.payload))
		if err != nil {
			b.Fatal(err)
		}
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

// BenchmarkMonitorCrossover sets the specialized monitors (fast.Check)
// against the witness search (monitor.Check, partitioned as `lineup monitor`
// runs it and with NoPartition) on fill-then-drain traces of 10³ and 10⁴
// operations: three threads insert distinct values, then remove them. The
// fill is longer than the drain by the thread count, so no removal finds the
// container empty and every trace is in the fast monitors' fragment. The
// set's values are distinct, so partitioning splits it into one part per
// value; the queue and the stack are one part whose state grows to half the
// trace. Each sub-benchmark reports ns/op for one whole trace. The searcher
// may expand twice as many nodes as the trace has operations (a witness
// needs one per operation); an arm that exceeds that is skipped, because at
// the default budget the queue's search runs for minutes and keeps every
// refuted state in its memo.
func BenchmarkMonitorCrossover(b *testing.B) {
	const threads = 3
	fillDrain := func(ops int, insert string, remove func(k int) string) func(*rand.Rand, string) string {
		filled, drained := 0, 0
		return func(*rand.Rand, string) string {
			if filled < ops/2+threads {
				filled++
				return fmt.Sprintf("%s(%d)", insert, filled)
			}
			drained++
			return remove(drained)
		}
	}
	for _, c := range []struct {
		model, insert string
		kind          fast.Kind
		remove        func(k int) string
	}{
		{"queue", "Enqueue", fast.KindQueue, func(int) string { return "TryDequeue()" }},
		{"set", "Add", fast.KindSet, func(k int) string { return fmt.Sprintf("Remove(%d)", k) }},
		{"stack", "Push", fast.KindStack, func(int) string { return "TryPop()" }},
	} {
		model, _ := lineup.BuiltinModel(c.model)
		for _, n := range []int{1000, 10000} {
			h, err := obsfile.ReadTrace(bytes.NewReader(monitorLongTrace(b, model, 1, threads, n, fillDrain(n, c.insert, c.remove))))
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/%d", c.model, n)
			b.Run(name+"/fast", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if ok, err := fast.Check(c.kind, h); !ok || err != nil {
						b.Fatalf("fast.Check = %v, %v", ok, err)
					}
				}
			})
			for _, arm := range []struct {
				name        string
				noPartition bool
			}{{"wgl", false}, {"wgl-nopartition", true}} {
				b.Run(name+"/"+arm.name, func(b *testing.B) {
					opts := lineup.MonitorOptions{NoPartition: arm.noPartition, MaxStates: 2 * n}
					for i := 0; i < b.N; i++ {
						out, err := lineup.CheckHistory(model, h, opts)
						if errors.Is(err, monitor.ErrStateLimit) {
							b.Skipf("over budget: %d nodes expanded in one part", out.Stats.Visited)
						}
						if err != nil || !out.Linearizable {
							b.Fatalf("out=%+v err=%v", out, err)
						}
						b.ReportMetric(float64(out.Stats.Visited), "nodes")
					}
				})
			}
		}
	}
}

// BenchmarkIncrementalWindows is the window check of `lineup serve` alone, so
// it can be profiled without the harness: a queue session shaped like the
// serve-fresh workload's (three threads, at most eight elements queued) is
// cut at the first quiescent point after every 64 completed operations, and
// one iteration retires one window through Incremental.ExtendComplete, the
// windows taken in order and a fresh Incremental at the start of each pass.
// "whole" retires a window as one search, as serve does; "pieces" retires it
// as the pieces between its interior quiescent points, one search each. Both
// report ns, allocations, expanded search nodes and searches per window.
func BenchmarkIncrementalWindows(b *testing.B) {
	const window = 64
	queueModel, _ := lineup.BuiltinModel("queue")
	enqueued := 0
	h, err := obsfile.ReadTrace(bytes.NewReader(monitorLongTrace(b, queueModel, 3, 3, 200*window, func(rng *rand.Rand, state string) string {
		if rng.Intn(5) < 2 && lineup.ModelList(state).Len() < 8 {
			enqueued++
			return fmt.Sprintf("Enqueue(%d)", enqueued)
		}
		return "TryDequeue()"
	})))
	if err != nil {
		b.Fatal(err)
	}
	var whole, pieces [][]*history.History // per window, the histories retiring it
	var split []*history.History
	open, completed, start, cut := 0, 0, 0, 0
	for i, e := range h.Events {
		if e.Kind == history.Call {
			open++
		} else {
			open--
			completed++
		}
		if open > 0 {
			continue
		}
		split = append(split, &history.History{Events: h.Events[cut : i+1]})
		cut = i + 1
		if completed >= window {
			whole = append(whole, []*history.History{{Events: h.Events[start : i+1]}})
			pieces = append(pieces, split)
			split, start, completed = nil, i+1, 0
		}
	}
	for _, run := range []struct {
		name    string
		windows [][]*history.History
	}{{"whole", whole}, {"pieces", pieces}} {
		b.Run(run.name, func(b *testing.B) {
			var inc *lineup.Incremental
			visited := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := i % len(run.windows)
				if w == 0 {
					if inc != nil {
						visited += inc.Stats().Visited
					}
					if inc, err = lineup.NewIncremental(queueModel, lineup.MonitorOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				for _, piece := range run.windows[w] {
					if ok, err := inc.ExtendComplete(piece); err != nil || !ok {
						b.Fatalf("window %d: ok=%v err=%v", w, ok, err)
					}
				}
			}
			b.ReportMetric(float64(visited+inc.Stats().Visited)/float64(b.N), "nodes/window")
			searches := 0
			for _, w := range run.windows {
				searches += len(w)
			}
			b.ReportMetric(float64(searches)/float64(len(run.windows)), "searches/window")
		})
	}
}

// BenchmarkDistWallRatio prices the unit coordinator behind `check -test`
// (DESIGN.md §6) against the in-process explorer: the harness's scaled
// check-deep (Fig. 9 corrected, an IsSet observer on a third thread,
// preemption bound 3, sleep sets) through the sequential explorer, the in-process explorer with two workers, and the
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

// BenchmarkIterativeBounding measures ROADMAP item 18's step (a): on every
// FAIL among the directed cause cases and the tests of the harness's
// check-hunt workload (seed 2: the 13 cause cases, then 30 balanced 2x3 tests,
// 2x2 for ManualResetEvent(Pre) and ConcurrentBag, on each of ten failing
// classes), phase 2's executions and time to the first violation under the
// depth-first explorer at the class's bound, against a naive by-bound rerun
// (bound 0, 1, ... up to the class's, stopping at the first FAIL; its
// executions and times are summed). Phase 1 runs once per test and is shared;
// one worker, so the executions are deterministic; each time is the minimum
// of three runs. Run with -benchtime 1x -v: it logs one row per group and
// the medians EXPERIMENTS.md "Iterative preemption bounding, measured"
// records.
func BenchmarkIterativeBounding(b *testing.B) {
	type item struct {
		group string
		sub   *core.Subject
		test  *core.Test
		bound int
	}
	var items []item
	for _, c := range bench.CauseCases() {
		items = append(items, item{"causes", c.Subject, c.Test, c.Bound})
	}
	const seed = 2
	for i, class := range []string{
		"Lazy(Pre)", "ManualResetEvent(Pre)", "SemaphoreSlim(Pre)", "CountdownEvent(Pre)",
		"ConcurrentQueue(Pre)", "ConcurrentStack(Pre)", "BlockingCollection(Pre)",
		"TaskCompletionSource(Pre)", "ConcurrentBag", "Barrier",
	} {
		sub, e, ok := bench.Find(class)
		if !ok {
			b.Fatalf("no class %s", class)
		}
		ops := 3
		if class == "ManualResetEvent(Pre)" || class == "ConcurrentBag" {
			ops = 2
		}
		// The harness's balancedTest on its generator (benchmark/gen.go).
		rng := rand.New(rand.NewSource(seed*1_000_003 + 100 + int64(i)))
		for n := 0; n < 30; n++ {
			cells := make([]core.Op, 0, 2*ops)
			for len(cells) < 2*ops {
				for _, k := range rng.Perm(len(sub.Ops)) {
					if len(cells) == 2*ops {
						break
					}
					cells = append(cells, sub.Ops[k])
				}
			}
			rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			items = append(items, item{class, sub, &core.Test{Rows: [][]core.Op{cells[:ops], cells[ops:]}}, e.Bound})
		}
	}
	// check runs phase 2 three times and keeps the fastest run's time.
	check := func(it item, spec *history.Spec, pb int) (*core.Result, time.Duration) {
		var best *core.Result
		for r := 0; r < 3; r++ {
			res, err := core.CheckAgainstSpec(it.sub, it.test, spec, core.Options{PreemptionBound: pb, Workers: 1})
			if err != nil {
				b.Fatalf("%s %s: %v", it.group, it.test, err)
			}
			if best == nil || res.Phase2.Duration < best.Phase2.Duration {
				best = res
			}
		}
		return best, best.Phase2.Duration
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		if len(xs) == 0 {
			return 0
		}
		if len(xs)%2 == 1 {
			return xs[len(xs)/2]
		}
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	for i := 0; i < b.N; i++ {
		type row struct {
			fails, same                                    int
			dfsExecs, naiveExecs, dfsMS, naiveMS, speedups []float64
			dfsTotal, naiveTotal                           time.Duration
		}
		rows, all := map[string]*row{}, &row{}
		var groups []string
		verdicts, foundAt := 0, map[int]int{}
		for _, it := range items {
			verdicts++
			spec, _, err := core.SynthesizeSpec(it.sub, it.test, core.Options{PreemptionBound: it.bound})
			if err != nil {
				b.Fatalf("%s %s: phase 1: %v", it.group, it.test, err)
			}
			dfs, dfsTime := check(it, spec, it.bound)
			if dfs.Verdict != core.Fail {
				continue
			}
			var naive *core.Result
			naiveExecs, naiveTime := 0, time.Duration(0)
			for pb := 0; pb <= it.bound; pb++ {
				opt := pb
				if pb == 0 {
					opt = core.NoPreemptions // a zero bound is the default one
				}
				res, d := check(it, spec, opt)
				naiveExecs += res.Phase2.Executions
				naiveTime += d
				if res.Verdict == core.Fail {
					naive = res
					foundAt[pb]++
					break
				}
			}
			if rows[it.group] == nil {
				rows[it.group] = &row{}
				groups = append(groups, it.group)
			}
			for _, r := range []*row{rows[it.group], all} {
				r.fails++
				if naive.Violation.Kind == dfs.Violation.Kind {
					r.same++
				}
				r.dfsExecs = append(r.dfsExecs, float64(dfs.Phase2.Executions))
				r.naiveExecs = append(r.naiveExecs, float64(naiveExecs))
				r.dfsMS = append(r.dfsMS, dfsTime.Seconds()*1e3)
				r.naiveMS = append(r.naiveMS, naiveTime.Seconds()*1e3)
				r.speedups = append(r.speedups, dfsTime.Seconds()/naiveTime.Seconds())
				r.dfsTotal += dfsTime
				r.naiveTotal += naiveTime
			}
		}
		b.Logf("%d verdicts, %d FAIL; the rerun first fails at bound 0, 1, 2, 3, 4 on %d, %d, %d, %d, %d", verdicts, all.fails,
			foundAt[0], foundAt[1], foundAt[2], foundAt[3], foundAt[4])
		b.Logf("%-26s %5s %5s %10s %10s %9s %9s %9s %9s %8s", "group", "FAIL", "kind=", "DFS execs", "naive", "DFS ms", "naive ms", "DFS tot", "naive tot", "speed-up")
		for _, g := range append(groups, "all") {
			r := all
			if g != "all" {
				r = rows[g]
			}
			b.Logf("%-26s %5d %5d %10.0f %10.0f %9.3f %9.3f %9.1f %9.1f %7.2fx", g, r.fails, r.same,
				median(r.dfsExecs), median(r.naiveExecs), median(r.dfsMS), median(r.naiveMS),
				r.dfsTotal.Seconds()*1e3, r.naiveTotal.Seconds()*1e3, median(r.speedups))
		}
	}
}
