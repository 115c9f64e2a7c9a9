package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// buildLineup compiles the CLI binary once per test into a temp dir, so the
// kill/resume test exercises the real process boundary (SIGKILL mid-run)
// rather than an in-process simulation.
func buildLineup(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lineup")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building lineup: %v\n%s", err, out)
	}
	return bin
}

// deterministicLines strips the wall-clock-bearing lines ("... avg") from a
// check report, keeping the verdict counts, the first failing test, and the
// violation report — everything that must survive a kill/resume unchanged.
func deterministicLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "avg") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCheckCheckpointResumeAfterKill is the end-to-end acceptance check for
// checkpoint/resume: a 'lineup check -dir D' process is SIGKILLed mid-run,
// then rerun with identical flags; the final report must match the
// uninterrupted run's, for 1 and 4 workers (the checkpoint records the
// reduction, sleep sets, so a resumed run prunes the same branches the killed
// one did). A checkpoint that holds the retired "options.workers", which once
// counted the tests checked side by side
// (internal/core/testdata/checkpoint-sleep-with-workers.json, the same
// sample), resumes from D/checkpoint.json to the same report.
func TestCheckCheckpointResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short mode")
	}
	bin := buildLineup(t)
	t.Run("reduction=sleep", func(t *testing.T) {
		testKillResume(t, bin)
	})
}

func testKillResume(t *testing.T, bin string) {
	args := func(extra ...string) []string {
		return append([]string{
			"check", "-class", "SemaphoreSlim(Pre)",
			"-samples", "4", "-seed", "1", "-shrink=false",
		}, extra...)
	}
	base, err := exec.Command(bin, args("-workers", "1")...).Output()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := deterministicLines(string(base))
	if !strings.Contains(want, "failed") || !strings.Contains(want, "violation") {
		t.Fatalf("baseline run found no violation; fixture broken:\n%s", want)
	}
	if !strings.Contains(want, "reduction (sleep):") {
		t.Fatalf("reduced baseline missing the reduction counters:\n%s", want)
	}

	for _, workers := range []string{"1", "4"} {
		t.Run("workers="+workers, func(t *testing.T) {
			dir := t.TempDir()
			ck := filepath.Join(dir, "checkpoint.json")
			// The run also writes a telemetry event trace: both the checkpoint
			// and the trace go through obsfile.AtomicWriteFile, so this doubles
			// as the CLI-level check that the fsync-hardened atomic write path
			// produces complete, parseable files.
			traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
			run := args("-workers", workers, "-dir", dir, "-trace-out", traceOut)
			victim := exec.Command(bin, run...)
			if err := victim.Start(); err != nil {
				t.Fatalf("starting victim: %v", err)
			}
			// Kill -9 as soon as at least one test has been checkpointed.
			deadline := time.Now().Add(60 * time.Second)
			for {
				if cp, err := core.LoadRandomCheckpoint(ck); err == nil && len(cp.Tests) >= 1 {
					break
				}
				if time.Now().After(deadline) {
					victim.Process.Kill()
					victim.Wait()
					t.Fatalf("victim wrote no checkpoint within 60s")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := victim.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			victim.Wait() // expected to report the kill; the checkpoint is what matters

			cp, err := core.LoadRandomCheckpoint(ck)
			if err != nil {
				t.Fatalf("checkpoint unreadable after SIGKILL (atomic write broken?): %v", err)
			}
			if len(cp.Tests) >= cp.Options.Samples {
				t.Fatalf("victim finished all %d tests before the kill; fixture too fast", cp.Options.Samples)
			}

			resumed, err := exec.Command(bin, run...).Output()
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := deterministicLines(string(resumed)); got != want {
				t.Errorf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
			tf, err := os.Open(traceOut)
			if err != nil {
				t.Fatalf("telemetry trace not written: %v", err)
			}
			events, err := telemetry.ReadTraceEvents(tf)
			tf.Close()
			if err != nil {
				t.Fatalf("telemetry trace unparseable: %v", err)
			}
			if len(events) == 0 || events[len(events)-1].Kind != "final" {
				t.Errorf("telemetry trace incomplete: %d events", len(events))
			}
			final, err := core.LoadRandomCheckpoint(ck)
			if err != nil {
				t.Fatalf("final checkpoint: %v", err)
			}
			if len(final.Tests) != final.Options.Samples {
				t.Errorf("final checkpoint records %d of %d tests", len(final.Tests), final.Options.Samples)
			}
			if got := final.Options.Reduction; got != sched.ReductionSleep {
				t.Errorf("checkpoint records reduction %v, the run used sleep sets", got)
			}
		})
	}

	t.Run("checkpoint-with-workers", func(t *testing.T) {
		old, err := os.ReadFile("../../internal/core/testdata/checkpoint-sleep-with-workers.json")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, err := exec.Command(bin, args("-workers", "4", "-dir", dir)...).Output()
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if got := deterministicLines(string(resumed)); got != want {
			t.Errorf("report resumed from the old checkpoint differs from an uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
		}
	})
}

// TestCheckResumeReductionMismatch asserts a checkpoint written under one
// reduction strategy cannot be resumed under another: the pruned schedule
// spaces differ, so silently mixing them would corrupt the summary. The CLI
// always reduces, so the checkpoint it wrote is edited to say "none".
func TestCheckResumeReductionMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short mode")
	}
	bin := buildLineup(t)
	dir := t.TempDir()
	args := []string{
		"check", "-class", "ConcurrentStack",
		"-samples", "2", "-rows", "2", "-cols", "2", "-workers", "1", "-dir", dir,
	}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, out)
	}
	ck := filepath.Join(dir, "checkpoint.json")
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	unreduced := strings.Replace(string(data), `"reduction": "sleep"`, `"reduction": "none"`, 1)
	if unreduced == string(data) {
		t.Fatalf("the checkpoint records no sleep-set reduction:\n%s", data)
	}
	if err := os.WriteFile(ck, []byte(unreduced), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("resume with a different reduction strategy must fail:\n%s", out)
	}
	if !strings.Contains(string(out), "checkpoint") || !strings.Contains(string(out), "options.reduction") {
		t.Fatalf("mismatch diagnostic does not name the checkpoint's reduction:\n%s", out)
	}
}
