package core_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
)

// summaryKey fingerprints the resume-relevant parts of a RandomSummary.
func summaryKey(sum *core.RandomSummary) string {
	s := fmt.Sprintf("passed=%d failed=%d", sum.Passed, sum.Failed)
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
		Options: core.Options{MaxExecutionsPerPhase: 50000, Workers: workers},
	}
}

// TestRandomCheckpointResume interrupts a RandomCheck after a few completed
// tests and resumes from the saved checkpoint: the final summary — per-test
// stats, verdicts, and the first violation — must match the uninterrupted
// run, for sequential and parallel test workers alike.
func TestRandomCheckpointResume(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			full, err := core.RandomCheck(sub, nil, randomOpts(workers))
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if full.Failed == 0 {
				t.Fatalf("Counter1 sample found no failures; the fixture is useless")
			}

			// Interrupted run: stop (via checkpoint error) after 3 tests.
			path := filepath.Join(t.TempDir(), "ckpt.json")
			stop := fmt.Errorf("simulated kill")
			opts := randomOpts(workers)
			completed := 0
			opts.Checkpoint = func(cp *core.RandomCheckpoint) error {
				if err := cp.Save(path); err != nil {
					return err
				}
				completed++
				if completed >= 3 {
					return stop
				}
				return nil
			}
			if _, err := core.RandomCheck(sub, nil, opts); err == nil {
				t.Fatalf("interrupted run returned no error")
			}

			cp, err := core.LoadRandomCheckpoint(path)
			if err != nil {
				t.Fatalf("loading checkpoint: %v", err)
			}
			if len(cp.Tests) == 0 {
				t.Fatalf("checkpoint recorded no tests")
			}

			resumed := randomOpts(workers)
			resumed.Resume = cp
			ran := 0
			resumed.Checkpoint = func(*core.RandomCheckpoint) error { ran++; return nil }
			sum, err := core.RandomCheck(sub, nil, resumed)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if want := len(sum.Results) - len(cp.Tests); ran != want {
				t.Errorf("resumed run checked %d tests, want %d (skipping %d restored)", ran, want, len(cp.Tests))
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
		})
	}
}

// TestRandomCheckpointRejectsMismatchedConfig guards against silently
// resuming a checkpoint into a run that would sample different tests.
func TestRandomCheckpointRejectsMismatchedConfig(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	opts := randomOpts(1)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opts.Checkpoint = func(cp *core.RandomCheckpoint) error { return cp.Save(path) }
	if _, err := core.RandomCheck(sub, nil, opts); err != nil {
		t.Fatalf("base run: %v", err)
	}
	cp, err := core.LoadRandomCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := randomOpts(1)
	bad.Seed = 99
	bad.Resume = cp
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
	opts := randomOpts(1)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opts.Checkpoint = func(cp *core.RandomCheckpoint) error { return cp.Save(path) }
	if _, err := core.RandomCheck(sub, nil, opts); err != nil {
		t.Fatalf("base run: %v", err)
	}
	cp, err := core.LoadRandomCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := randomOpts(1)
	bad.Seed = 99
	bad.Samples = 16
	bad.Options.PreemptionBound = 1
	bad.Options.Reduction = sched.ReductionSleep
	bad.Resume = cp
	_, err = core.RandomCheck(sub, nil, bad)
	if err == nil {
		t.Fatal("mismatched resume was accepted")
	}
	for _, field := range []string{"seed", "samples", "preemption_bound", "reduction"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("mismatch error omits %q: %v", field, err)
		}
	}
}
