package core_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
)

// summaryKey fingerprints a RandomSummary apart from its durations.
func summaryKey(sum *core.RandomSummary) string {
	s := fmt.Sprintf("passed=%d failed=%d serial=%.3f/%d stuck=%d pb=%d",
		sum.Passed, sum.Failed, sum.SerialHistAvg, sum.SerialHistMax, sum.StuckTests, sum.PreemptionUsed)
	for k, r := range sum.Results {
		if r == nil {
			s += fmt.Sprintf(" %d:nil", k)
			continue
		}
		s += fmt.Sprintf(" %d:%v/p1=%d,%d/p2=%d,%d", k, r.Verdict,
			r.Phase1.Executions, r.Phase1.Histories, r.Phase2.Executions, r.Phase2.Histories)
	}
	return s
}

func randomOpts(workers int) core.RandomOptions {
	return core.RandomOptions{
		Rows: 2, Cols: 2, Samples: 8, Seed: 7,
		Options: core.WithExecutionBudget(core.Options{Workers: workers}, 50000),
	}
}

// checkpointed runs opts with its progress kept in a fresh directory and
// returns the summary and the checkpoint's path.
func checkpointed(t *testing.T, sub *core.Subject, opts core.RandomOptions) (*core.RandomSummary, string) {
	t.Helper()
	opts.Dir = filepath.Join(t.TempDir(), "run")
	sum, err := core.RandomCheck(sub, nil, opts)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	return sum, filepath.Join(opts.Dir, "checkpoint.json")
}

// TestRandomCheckpointResume cuts a finished checkpoint back to the first k
// tests it recorded, as a run killed after k tests leaves it, and reruns the
// same options on its directory: the summary — per-test stats, verdicts, the
// aggregates and the first violation — must match the uninterrupted run apart
// from durations, with exactly k tests resumed, for sequential and parallel
// test workers alike.
func TestRandomCheckpointResume(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	const k = 3
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := randomOpts(workers)
			full, path := checkpointed(t, sub, opts)
			if full.Failed == 0 {
				t.Fatalf("Counter1 sample found no failures; the fixture is useless")
			}
			if full.Resumed != 0 {
				t.Errorf("a run on an empty directory resumed %d tests", full.Resumed)
			}
			cp, err := core.LoadRandomCheckpoint(path)
			if err != nil {
				t.Fatalf("loading checkpoint: %v", err)
			}
			if len(cp.Tests) != opts.Samples {
				t.Fatalf("finished checkpoint records %d of %d tests", len(cp.Tests), opts.Samples)
			}
			cp.Tests = cp.Tests[:k]
			if err := cp.Save(path); err != nil {
				t.Fatal(err)
			}

			opts.Dir = filepath.Dir(path)
			sum, err := core.RandomCheck(sub, nil, opts)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if sum.Resumed != k {
				t.Errorf("resumed run restored %d tests, want %d", sum.Resumed, k)
			}
			if got, want := summaryKey(sum), summaryKey(full); got != want {
				t.Errorf("resumed summary differs from uninterrupted run:\n got %s\nwant %s", got, want)
			}
			if sum.FirstFailure == nil || sum.FirstFailure.Violation == nil {
				t.Fatalf("resumed run lost the first-failure violation report")
			}
			if full.FirstFailure.Test.String() != sum.FirstFailure.Test.String() {
				t.Errorf("first failing test differs:\n got %s\nwant %s",
					sum.FirstFailure.Test, full.FirstFailure.Test)
			}
			if full.FirstFailure.Violation.Kind != sum.FirstFailure.Violation.Kind {
				t.Errorf("first violation kind differs: got %v want %v",
					sum.FirstFailure.Violation.Kind, full.FirstFailure.Violation.Kind)
			}
			if cp, err := core.LoadRandomCheckpoint(path); err != nil || len(cp.Tests) != opts.Samples {
				t.Errorf("resumed run's checkpoint: %v, want all %d tests recorded", err, opts.Samples)
			}
		})
	}
}

// TestRandomCheckpointRejectsMismatchedConfig guards against silently
// resuming a checkpoint into a run that would sample different tests.
func TestRandomCheckpointRejectsMismatchedConfig(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	_, path := checkpointed(t, sub, randomOpts(1))
	bad := randomOpts(1)
	bad.Seed = 99
	bad.Dir = filepath.Dir(path)
	if _, err := core.RandomCheck(sub, nil, bad); err == nil {
		t.Fatalf("resume with a different seed was accepted")
	}
}

// TestRandomCheckpointReportsAllMismatches: a stale checkpoint differing in
// several fields names every one of them in a single error, so the operator
// fixes the resume invocation in one pass instead of one failure per field.
func TestRandomCheckpointReportsAllMismatches(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	_, path := checkpointed(t, sub, randomOpts(1))
	bad := randomOpts(1)
	bad.Seed = 99
	bad.Samples = 16
	bad.Options.PreemptionBound = 1
	bad.Options.Reduction = sched.ReductionNone
	bad.Dir = filepath.Dir(path)
	_, err := core.RandomCheck(sub, nil, bad)
	if err == nil {
		t.Fatal("mismatched resume was accepted")
	}
	for _, field := range []string{"seed", "samples", "preemption_bound", "reduction"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("mismatch error omits %q: %v", field, err)
		}
	}
}
