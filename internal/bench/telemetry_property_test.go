package bench

import (
	"fmt"
	"os"
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// telemetryPropertyCauses is the cheap directed subset the observe-only
// property is checked on: three distinct Table-2 classes whose exhaustive
// bounded explorations finish in milliseconds.
var telemetryPropertyCauses = []Cause{CauseB + "'", CauseF, CauseG}

// resultSignature flattens everything a check reports that must be
// deterministic — verdict, both phases' statistics, and the violation
// report — with the wall-clock durations zeroed (the only legitimately
// nondeterministic fields).
func resultSignature(r *core.Result) string {
	p1, p2 := r.Phase1, r.Phase2
	p1.Duration, p2.Duration = 0, 0
	v := ""
	if r.Violation != nil {
		v = r.Violation.String()
	}
	return fmt.Sprintf("%v|%+v|%+v|%d failures|%s", r.Verdict, p1, p2, len(r.Failures), v)
}

// TestTelemetryObserveOnlyProperty is the telemetry contract test: enabling a
// collector must not change anything a check reports. For each directed
// Table-2 case (buggy subject and corrected counterpart), each reduction
// strategy, and each worker count, the telemetry-on run must be bit-identical
// to the telemetry-off run — verdict, both phases' statistics, and the first
// violation — and on these exhaustive runs the whole signature must also be
// identical across worker counts (this is the regression test for the
// shard-split orphaned-level accounting, which made the merged Pruned count
// depend on where the timing-driven splits landed). The enabled collector
// must also have actually observed the run, so the property cannot pass
// vacuously.
func TestTelemetryObserveOnlyProperty(t *testing.T) {
	wanted := map[Cause]bool{}
	for _, c := range telemetryPropertyCauses {
		wanted[c] = true
	}
	cases := 0
	for _, c := range CauseCases() {
		if !wanted[c.Cause] {
			continue
		}
		for _, sub := range []*core.Subject{c.Subject, c.Counterpart} {
			if sub == nil {
				continue
			}
			cases++
			for _, reduction := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
				crossWorkers := ""
				for _, workers := range []int{1, 4} {
					run := func(col *telemetry.Collector) *core.Result {
						t.Helper()
						r, err := core.Check(sub, c.Test, core.Options{
							PreemptionBound: c.Bound,
							ExhaustPhase2:   true,
							Workers:         workers,
							Reduction:       reduction,
							Telemetry:       col,
						})
						if err != nil {
							t.Fatalf("%s cause %s reduction=%v workers=%d: %v",
								sub.Name, c.Cause, reduction, workers, err)
						}
						return r
					}
					tag := fmt.Sprintf("%s cause %s reduction=%v workers=%d",
						sub.Name, c.Cause, reduction, workers)

					off := run(nil)
					col := telemetry.New()
					on := run(col)
					if offSig, onSig := resultSignature(off), resultSignature(on); offSig != onSig {
						t.Errorf("%s: telemetry changed the result\n off: %s\n  on: %s", tag, offSig, onSig)
					}
					snap := col.Snapshot()
					if snap["executions_done"] == 0 || snap["witness_queries"] == 0 {
						t.Errorf("%s: collector observed nothing: %+v", tag, snap)
					}
					if int(snap["executions_done"]) != on.Phase1.Executions+on.Phase2.Executions {
						t.Errorf("%s: collector counted %d executions, phases report %d",
							tag, snap["executions_done"], on.Phase1.Executions+on.Phase2.Executions)
					}

					cross := resultSignature(on)
					if crossWorkers == "" {
						crossWorkers = cross
					} else if cross != crossWorkers {
						t.Errorf("%s: explorer invariant broke across worker counts\n got: %s\nwant: %s",
							tag, cross, crossWorkers)
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no directed cases matched the property subset")
	}
}

// TestTelemetryObserveOnlyRandomCheck extends the property to the Table-2
// random sampling driver: a shared collector across a whole sample, with and
// without test-level workers, must leave the summary untouched. Seed 3 is
// picked so even the quick workload (2x3 matrices) samples a failing test
// and compares the regenerated first violation.
func TestTelemetryObserveOnlyRandomCheck(t *testing.T) {
	sub, _, ok := Find("SemaphoreSlim(Pre)")
	if !ok {
		t.Fatal("SemaphoreSlim(Pre) not registered")
	}
	rows, samples := 3, 4
	if testing.Short() || os.Getenv("LINEUP_BENCH_FULL") != "1" {
		// The full 3x3 sample takes minutes under the race detector and a
		// quarter of a minute without; the 2x3 variant keeps `make race` and
		// plain `go test` quick while still failing a test. `make sweeps`
		// runs the full sample.
		rows, samples = 2, 2
	}
	signature := func(sum *core.RandomSummary) string {
		first := ""
		if sum.FirstFailure != nil {
			first = sum.FirstFailure.Test.String()
			if sum.FirstFailure.Violation != nil {
				first += "|" + sum.FirstFailure.Violation.String()
			}
		}
		return fmt.Sprintf("%d passed|%d failed|%d stuck|%s", sum.Passed, sum.Failed, sum.StuckTests, first)
	}
	base := ""
	for _, workers := range []int{1, 2} {
		for _, telOn := range []bool{false, true} {
			var col *telemetry.Collector
			if telOn {
				col = telemetry.New()
			}
			sum, err := core.RandomCheck(sub, nil, core.RandomOptions{
				Rows: rows, Cols: 3, Samples: samples, Seed: 3, Workers: workers,
				Options: core.Options{Telemetry: col},
			})
			tag := fmt.Sprintf("workers=%d telemetry=%v", workers, telOn)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if sum.FirstFailure == nil {
				t.Fatalf("%s: sampled no failing test; the seed no longer exercises the violation path", tag)
			}
			sig := signature(sum)
			if base == "" {
				base = sig
			} else if sig != base {
				t.Errorf("%s: summary diverged\n got: %s\nwant: %s", tag, sig, base)
			}
			if telOn && col.Get(telemetry.ExecutionsDone) == 0 {
				t.Errorf("%s: collector observed nothing", tag)
			}
		}
	}
}
