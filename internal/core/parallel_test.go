package core_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// workerCounts is the equivalence grid of the issue: Workers=1 takes the
// sequential explorer, the rest shard the phase-2 schedule space.
var workerCounts = []int{1, 2, 4, 8}

func queueSubject() *core.Subject {
	sub := &core.Subject{
		Name: "Queue",
		New:  func(th *sched.Thread) any { return collections.NewQueue(th) },
	}
	enq := core.Op{Method: "Enqueue", Args: "1", Run: func(th *sched.Thread, o any) string {
		o.(*collections.Queue).Enqueue(th, 1)
		return collections.OK
	}}
	deq := core.Op{Method: "TryDequeue", Run: func(th *sched.Thread, o any) string {
		return collections.TryInt(o.(*collections.Queue).TryDequeue(th))
	}}
	sub.Ops = []core.Op{enq, deq}
	return sub
}

func stackSubject() *core.Subject {
	sub := &core.Subject{
		Name: "Stack",
		New:  func(th *sched.Thread) any { return collections.NewStack(th) },
	}
	push := core.Op{Method: "Push", Args: "1", Run: func(th *sched.Thread, o any) string {
		o.(*collections.Stack).Push(th, 1)
		return collections.OK
	}}
	pop := core.Op{Method: "TryPop", Run: func(th *sched.Thread, o any) string {
		v, ok := o.(*collections.Stack).TryPop(th)
		if !ok {
			return collections.Bool(false)
		}
		return collections.Int(v)
	}}
	sub.Ops = []core.Op{push, pop}
	return sub
}

// violationString renders a violation for comparison; the empty string means
// no violation.
func violationString(r *core.Result) string {
	if r.Violation == nil {
		return ""
	}
	return r.Violation.String()
}

// TestCheckWorkersEquivalence is the issue's acceptance gate: Check with
// Options.Workers=N must return an identical verdict and a deterministic,
// identical violation to Workers=1 on every subject of the corpus — correct
// queue/stack/counter subjects (including a blocking test with stuck
// histories) and buggy variants.
func TestCheckWorkersEquivalence(t *testing.T) {
	sched.RequireNoLeaks(t)
	inc, get, dec := counterOps()
	qsub := queueSubject()
	ssub := stackSubject()
	rsub := racyRegister()
	lsub := lazyPreSubject()
	cases := []struct {
		name string
		sub  *core.Subject
		m    *core.Test
	}{
		{"queue-2x2", qsub, &core.Test{Rows: [][]core.Op{{qsub.Ops[0], qsub.Ops[1]}, {qsub.Ops[0], qsub.Ops[1]}}}},
		{"stack-2x2", ssub, &core.Test{Rows: [][]core.Op{{ssub.Ops[0], ssub.Ops[1]}, {ssub.Ops[1], ssub.Ops[0]}}}},
		{"counter-pass", counterSubject(), &core.Test{Rows: [][]core.Op{{inc, get}, {inc, get}}}},
		{"counter-blocking", counterSubject(), &core.Test{Rows: [][]core.Op{{dec}, {inc, dec}}}},
		{"racy-register", rsub, &core.Test{Rows: [][]core.Op{{rsub.Ops[0], rsub.Ops[1]}, {rsub.Ops[0]}}}},
		{"lazy-pre", lsub, &core.Test{Rows: [][]core.Op{{lsub.Ops[0]}, {lsub.Ops[0], lsub.Ops[1]}}}},
	}
	for _, tc := range cases {
		base := mustCheck(t, tc.sub, tc.m, core.Options{Workers: 1})
		for _, w := range workerCounts[1:] {
			got := mustCheck(t, tc.sub, tc.m, core.Options{Workers: w})
			if got.Verdict != base.Verdict {
				t.Fatalf("%s workers=%d: verdict %v, sequential %v", tc.name, w, got.Verdict, base.Verdict)
			}
			if violationString(got) != violationString(base) {
				t.Fatalf("%s workers=%d: violation differs from sequential:\n got: %s\nwant: %s",
					tc.name, w, violationString(got), violationString(base))
			}
			if base.Verdict == core.Pass {
				// A passing run explores the whole space: the merged phase-2
				// statistics must be bit-identical to the sequential ones.
				if got.Phase2.Executions != base.Phase2.Executions ||
					got.Phase2.Decisions != base.Phase2.Decisions ||
					got.Phase2.Histories != base.Phase2.Histories ||
					got.Phase2.Stuck != base.Phase2.Stuck {
					t.Fatalf("%s workers=%d: phase-2 stats differ: got %+v want %+v",
						tc.name, w, got.Phase2, base.Phase2)
				}
			}
		}
	}
}

// TestCheckWorkersEquivalenceAcrossBounds runs the verdict-equivalence grid
// over preemption bounds 0/1/2/Unbounded on one passing and one failing
// subject, both with cheap schedule spaces.
func TestCheckWorkersEquivalenceAcrossBounds(t *testing.T) {
	sched.RequireNoLeaks(t)
	rsub := racyRegister()
	qsub := queueSubject()
	cases := []struct {
		name string
		sub  *core.Subject
		m    *core.Test
	}{
		{"queue", qsub, &core.Test{Rows: [][]core.Op{{qsub.Ops[0], qsub.Ops[1]}, {qsub.Ops[0]}}}},
		{"racy-register", rsub, &core.Test{Rows: [][]core.Op{{rsub.Ops[0]}, {rsub.Ops[0], rsub.Ops[1]}}}},
	}
	for _, tc := range cases {
		for _, bound := range []int{core.NoPreemptions, 1, 2, core.Unbounded} {
			base := mustCheck(t, tc.sub, tc.m, core.Options{PreemptionBound: bound, Workers: 1})
			for _, w := range workerCounts[1:] {
				got := mustCheck(t, tc.sub, tc.m, core.Options{PreemptionBound: bound, Workers: w})
				if got.Verdict != base.Verdict || violationString(got) != violationString(base) {
					t.Fatalf("%s bound=%d workers=%d: result differs from sequential (verdict %v vs %v)",
						tc.name, bound, w, got.Verdict, base.Verdict)
				}
			}
		}
	}
}

// TestCheckWorkersExhaustStats checks the exhaustive mode: with
// ExhaustPhase2 the whole space is explored even on failing subjects, so the
// parallel statistics — not just the verdict — must equal the sequential
// ones.
func TestCheckWorkersExhaustStats(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := racyRegister()
	m := &core.Test{Rows: [][]core.Op{{sub.Ops[0], sub.Ops[1]}, {sub.Ops[0]}}}
	base := mustCheck(t, sub, m, core.Options{ExhaustPhase2: true, Workers: 1})
	if base.Verdict != core.Fail {
		t.Fatalf("racy register unexpectedly passed")
	}
	for _, w := range workerCounts[1:] {
		got := mustCheck(t, sub, m, core.Options{ExhaustPhase2: true, Workers: w})
		if got.Verdict != base.Verdict || violationString(got) != violationString(base) {
			t.Fatalf("workers=%d: exhaustive verdict/violation differs from sequential", w)
		}
		if got.Phase2.Executions != base.Phase2.Executions ||
			got.Phase2.Decisions != base.Phase2.Decisions ||
			got.Phase2.Histories != base.Phase2.Histories ||
			got.Phase2.Stuck != base.Phase2.Stuck {
			t.Fatalf("workers=%d: exhaustive phase-2 stats differ: got %+v want %+v", w, got.Phase2, base.Phase2)
		}
	}
}

// TestForEachExecutionWorkers checks the execution-stream hook: with
// Workers > 1 the multiset of outcomes handed to visit is the sequential
// multiset, and the merged stats match.
func TestForEachExecutionWorkers(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := queueSubject()
	m := &core.Test{Rows: [][]core.Op{{sub.Ops[0], sub.Ops[1]}, {sub.Ops[0]}}}
	collect := func(workers int) (map[string]int, sched.ExploreStats) {
		ms := map[string]int{}
		var mu sync.Mutex
		stats, err := core.ForEachExecution(sub, m, core.Options{Workers: workers}, false, func(out *sched.Outcome) bool {
			mu.Lock()
			h, herr := core.OutcomeHistory(out)
			if herr != nil {
				t.Errorf("history: %v", herr)
			} else {
				ms[h.String()]++
			}
			mu.Unlock()
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ms, stats
	}
	baseMS, baseStats := collect(1)
	for _, w := range workerCounts[1:] {
		gotMS, gotStats := collect(w)
		if gotStats.Executions != baseStats.Executions || gotStats.Decisions != baseStats.Decisions {
			t.Fatalf("workers=%d: stats differ: got %+v want %+v", w, gotStats, baseStats)
		}
		if len(gotMS) != len(baseMS) {
			t.Fatalf("workers=%d: %d distinct histories, sequential %d", w, len(gotMS), len(baseMS))
		}
		for k, n := range baseMS {
			if gotMS[k] != n {
				t.Fatalf("workers=%d: history multiset differs at one key (%d vs %d occurrences)", w, gotMS[k], n)
			}
		}
	}
}

// TestCheckWorkersPropertyRandomTests is the randomized layer of the
// equivalence suite: random test matrices on a buggy subject, random worker
// counts — the verdict and the violation report must match the sequential
// check every time.
func TestCheckWorkersPropertyRandomTests(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := racyRegister()
	prop := func(seed int64, wpick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomTest(rng, sub.Ops, 2, 2)
		w := workerCounts[1:][int(wpick)%len(workerCounts[1:])]
		base, err := core.Check(sub, m, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential check: %v", err)
		}
		got, err := core.Check(sub, m, core.Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d check: %v", w, err)
		}
		return got.Verdict == base.Verdict && violationString(got) == violationString(base)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCheckWorkers smoke-checks the AutoCheck wiring: the bounded
// enumeration with parallel phase-2 exploration stops at the same test with
// the same violation as the sequential run.
func TestAutoCheckWorkers(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := racyRegister()
	mk := func(workers int) core.AutoOptions {
		opts := core.AutoOptions{MaxN: 2, MaxTests: 20}
		opts.Workers = workers
		return opts
	}
	base, err := core.AutoCheck(sub, mk(1))
	if err != nil {
		t.Fatalf("sequential autocheck: %v", err)
	}
	got, err := core.AutoCheck(sub, mk(4))
	if err != nil {
		t.Fatalf("parallel autocheck: %v", err)
	}
	if got.Tests != base.Tests || got.Exhausted != base.Exhausted {
		t.Fatalf("autocheck disagrees: sequential tests=%d exhausted=%v, parallel tests=%d exhausted=%v",
			base.Tests, base.Exhausted, got.Tests, got.Exhausted)
	}
	if (got.Failed == nil) != (base.Failed == nil) {
		t.Fatalf("autocheck failure presence disagrees")
	}
	if got.Failed != nil && violationString(got.Failed) != violationString(base.Failed) {
		t.Fatalf("autocheck violation differs:\n got: %s\nwant: %s",
			violationString(got.Failed), violationString(base.Failed))
	}
}

// TestCheckShardProgress checks the shard counters of a parallel check:
// by the time Check returns, every shard its explorations created is
// retired, and the split-off ones are counted apart.
func TestCheckShardProgress(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := queueSubject()
	m := &core.Test{Rows: [][]core.Op{{sub.Ops[0], sub.Ops[1]}, {sub.Ops[0]}}}
	col := telemetry.New()
	res, err := core.Check(sub, m, core.Options{Workers: 4, Telemetry: col})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != core.Pass {
		t.Fatalf("queue failed: %v", res.Violation)
	}
	shards, done, splits := col.Get(telemetry.Shards), col.Get(telemetry.ShardsDone), col.Get(telemetry.ShardSplits)
	if shards == 0 {
		t.Fatalf("no shard counted")
	}
	if done != shards || splits >= shards {
		t.Fatalf("%d shards, %d done, %d splits", shards, done, splits)
	}
}

// TestConcurrentChecksSumTheirShards: two checks that share a collector
// leave in it the sum of what each counts alone, so a progress line over a
// RandomCheck reads the run's totals, not the last exploration's.
func TestConcurrentChecksSumTheirShards(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := queueSubject()
	tests := []*core.Test{
		{Rows: [][]core.Op{{sub.Ops[0], sub.Ops[1]}, {sub.Ops[0]}}},
		{Rows: [][]core.Op{{sub.Ops[0]}, {sub.Ops[1], sub.Ops[1]}, {sub.Ops[0]}}},
	}
	counters := []telemetry.Counter{telemetry.Shards, telemetry.ShardsDone, telemetry.ShardSplits, telemetry.ExecutionsStarted}
	want := make(map[telemetry.Counter]int64)
	for _, m := range tests {
		alone := telemetry.New()
		mustCheck(t, sub, m, core.Options{Workers: 1, Telemetry: alone})
		for _, k := range counters {
			want[k] += alone.Get(k)
		}
	}
	shared := telemetry.New()
	var wg sync.WaitGroup
	for _, m := range tests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := core.Check(sub, m, core.Options{Workers: 1, Telemetry: shared}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, k := range counters {
		if got := shared.Get(k); got != want[k] {
			t.Errorf("%s: the shared collector counted %d, the checks alone %d", k, got, want[k])
		}
	}
}
