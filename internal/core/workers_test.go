package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/faultinject"
	"lineup/internal/history"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// phase2Outcome is the result of phase 2 against spec, with what it added to
// a fresh Coverage, or the first line of its error.
func phase2Outcome(sub *core.Subject, m *core.Test, spec *history.Spec, opts core.Options) (*core.Result, string) {
	cov := core.NewCoverage()
	res, err := core.CheckAgainstSpec(sub, m, spec, core.WithCoverage(opts, cov))
	if err != nil {
		return nil, firstLine(err.Error())
	}
	return res, fmt.Sprintf("covered %d pairs, %d histories", cov.Pairs(), cov.Hists())
}

// TestWorkerCountUnobservable is the gate behind Options.Workers' zero value
// meaning "every CPU": verdict, violation, contained failures, error,
// coverage and every phase statistic but Duration are those of the
// Workers: 1 run at any worker count — on passing runs, on exhaustive failing
// runs and on runs that stop at the first violation, whose statistics count
// what lies at or before the stop — with the exploration forced to share work
// from its first execution on (so even an 11-execution check really splits)
// and at the real recruiting mark.
func TestWorkerCountUnobservable(t *testing.T) {
	sched.RequireNoLeaks(t)
	type checkCase struct {
		name  string
		sub   *core.Subject
		m     *core.Test
		bound int
	}
	var cases []checkCase
	for _, c := range bench.CauseCases() {
		cases = append(cases, checkCase{"cause " + string(c.Cause), c.Subject, c.Test, c.Bound})
	}
	// Failed executions interleaved with a violation: the wrapped counter
	// loses updates, and panics wherever two operations overlap.
	faulty := faultinject.New(faultinject.KindPanic).Wrap(counter1Subject())
	cases = append(cases, checkCase{"panicking counter", faulty,
		&core.Test{Rows: [][]core.Op{{faulty.Ops[0], faulty.Ops[1]}, {faulty.Ops[0], faulty.Ops[1]}}}, 2})
	// The passing 3x3 test costs as much as all the others together: it is
	// repeated in full where nothing else is going on, twice elsewhere. Only
	// LINEUP_BENCH_FULL=1 without -short (`make sweeps`) runs all twenty
	// repetitions everywhere; plain `go test` and `make race` keep them for
	// the runs that stop at the first violation from the first execution on,
	// and run a fifth of the rest.
	full := os.Getenv("LINEUP_BENCH_FULL") == "1" && !testing.Short()
	stack := findClass(t, "ConcurrentStack")
	passing := checkCase{"stack 3x3", stack, balancedTest(rand.New(rand.NewSource(1)), stack, 3, 3), 2}
	cases = append(cases, passing)

	type variant struct {
		maxFailures int
		exhaust     bool
	}
	variants := []variant{{0, false}, {3, false}, {1000, false}, {0, true}}
	for _, after := range []int{1, 64} {
		restore := core.SetRecruitAfter(after)
		for _, c := range cases {
			// Phase 1 is serial whatever the options: once per case.
			spec, _, err := core.SynthesizeSpec(c.sub, c.m, core.Options{})
			if err != nil {
				t.Fatalf("%s: phase 1: %v", c.name, err)
			}
			for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				for _, v := range variants {
					opts := core.Options{PreemptionBound: c.bound, Reduction: red, MaxFailures: v.maxFailures, ExhaustPhase2: v.exhaust, Workers: 1}
					want, wantNote := phase2Outcome(c.sub, c.m, spec, opts)
					if after > 1 && want != nil && want.Phase2.Executions <= after {
						continue // never recruits: it is the Workers: 1 run
					}
					main := after == 1 && v == variants[0]
					reps := 20
					if c.name == passing.name && !main {
						reps = 2
					}
					if !full && (c.name == passing.name || !main) {
						reps = max(1, reps/5)
					}
					for _, w := range []int{2, 4, 0} {
						opts.Workers = w
						for rep := 0; rep < reps; rep++ {
							tag := fmt.Sprintf("%s reduction=%v max-failures=%d exhaust=%v workers=%d recruit-after=%d rep=%d",
								c.name, red, v.maxFailures, v.exhaust, w, after, rep)
							got, gotNote := phase2Outcome(c.sub, c.m, spec, opts)
							if gotNote != wantNote {
								t.Fatalf("%s: %q, sequential %q", tag, gotNote, wantNote)
							}
							if got != nil {
								requireSameResult(t, tag, got, want)
							}
						}
					}
				}
			}
		}
		restore()
	}
}

// TestNoOversubscription checks who gets helpers. An exploration is shared
// only when its check is the one thing running — Workers resolves to one
// under DetectLeaks and under GOMAXPROCS(1), and RandomCheck gives a test more
// than one only when it has fewer tests than workers — and only once it has
// outlived the recruiting mark. A helper that starts has nothing to do but
// make the lone DFS split, so "no helper" is "no shard split" on the
// counter table.
func TestNoOversubscription(t *testing.T) {
	sched.RequireNoLeaks(t)
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU: every exploration is the lone DFS")
	}
	stack := findClass(t, "ConcurrentStack")
	long := balancedTest(rand.New(rand.NewSource(1)), stack, 3, 3) // 4 195 executions
	short := &core.Test{Rows: [][]core.Op{{stack.Ops[0]}, {stack.Ops[1]}}}
	var col *telemetry.Collector
	splits := func(run func()) int64 {
		col = telemetry.New()
		run()
		return col.Get(telemetry.ShardSplits)
	}
	check := func(m *core.Test, opts core.Options) func() {
		return func() {
			opts.PreemptionBound, opts.Telemetry = 2, col
			res := mustCheck(t, stack, m, opts)
			if m == short && res.Phase2.Executions >= 64 {
				t.Fatalf("the short test runs %d executions; it has to end before the recruiting mark", res.Phase2.Executions)
			}
		}
	}
	random := func(samples int) func() {
		return func() {
			_, err := core.RandomCheck(stack, nil, core.RandomOptions{
				Rows: 3, Cols: 2, Samples: samples, Seed: 1,
				Options: core.Options{PreemptionBound: 2, Workers: 2, Telemetry: col},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := splits(check(long, core.Options{})); n == 0 {
		t.Fatalf("Workers: 0 on %d CPUs never split a 4 195-execution exploration", runtime.NumCPU())
	}
	if n := splits(random(1)); n == 0 {
		t.Fatalf("RandomCheck of one test on two workers never split its exploration")
	}
	for name, run := range map[string]func(){
		"shorter than the recruiting mark":    check(short, core.Options{Workers: 4}),
		"RandomCheck of 4 tests on 2 workers": random(4),
		"DetectLeaks":                         check(long, core.Options{DetectLeaks: true}),
		"GOMAXPROCS(1)": func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			check(long, core.Options{})()
		},
	} {
		if n := splits(run); n != 0 {
			t.Errorf("%s: %d shards split off, want the lone DFS's none", name, n)
		}
	}
}
