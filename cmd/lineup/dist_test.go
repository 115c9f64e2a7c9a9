package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// distFixtureTest is a failing 3-thread MSQueue(Pre) test that splits into 9
// work units; distFixture checks it with `check -test` on one worker, so that
// a run can be killed with units both completed and outstanding.
const distFixtureTest = "Enqueue(1) TryDequeue() TryPeek() / Enqueue(2) TryDequeue() IsEmpty() / TryPeek() IsEmpty()"

var distFixture = []string{"check", "-class", "MSQueue(Pre)", "-test", distFixtureTest, "-workers", "1"}

// distBaseline runs the fixture uninterrupted and returns its stdout — the
// verdict line plus the violation report, which is deterministic by
// construction (all timing-dependent lease stats go to stderr).
func distBaseline(t *testing.T, bin string) string {
	t.Helper()
	out, err := exec.Command(bin, distFixture...).Output()
	if err == nil {
		t.Fatalf("baseline run found no violation; fixture broken:\n%s", out)
	}
	if !strings.Contains(string(out), "verdict: FAIL") {
		t.Fatalf("baseline run: %v\n%s", err, out)
	}
	return string(out)
}

// TestDistCoordinatorKillResume is the CLI half of the coordinator-crash
// acceptance gate: a 'lineup check -test -dir' run is SIGKILLed after at
// least one unit is journaled done, then rerun with the same -dir; the
// resumed run must restore completed units from the journal (no re-run, no
// double-count) and print a byte-identical verdict and violation.
func TestDistCoordinatorKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	bin := buildLineup(t)
	want := distBaseline(t, bin)

	dir := filepath.Join(t.TempDir(), "coord")
	args := append(append([]string(nil), distFixture...), "-dir", dir)
	victim := exec.Command(bin, args...)
	if err := victim.Start(); err != nil {
		t.Fatalf("starting victim: %v", err)
	}

	// Wait for the manifest to journal at least one done unit, then kill -9.
	manifest := filepath.Join(dir, "manifest.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, err := os.ReadFile(manifest)
		if err == nil && strings.Contains(string(data), `"state": "done"`) {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("no unit journaled done within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Process.Kill()
	victim.Wait()

	resumed := exec.Command(bin, args...)
	var stderr strings.Builder
	resumed.Stderr = &stderr
	out, err := resumed.Output()
	if err == nil {
		t.Fatalf("resumed run found no violation:\n%s", out)
	}
	if string(out) != want {
		t.Fatalf("resumed verdict differs from uninterrupted run:\n--- resumed\n%s\n--- baseline\n%s", out, want)
	}
	if !strings.Contains(stderr.String(), " resumed") || strings.Contains(stderr.String(), " 0 resumed") {
		t.Fatalf("resumed run restored no units from the journal:\n%s", stderr.String())
	}
}

// TestDistExecWorkerKill runs the fixture through real worker processes of
// the built binary, with the ExecLauncher's fault injection SIGKILLing unit
// 1's worker right after its first heartbeat: the lease must be reassigned
// and the merged result must be the in-process run's.
func TestDistExecWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	bin := buildLineup(t)
	sub, _, ok := findSubject("MSQueue(Pre)")
	if !ok {
		t.Fatal("no MSQueue(Pre)")
	}
	m, err := bench.ParseTest(sub, distFixtureTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dist.Config{Subject: sub, Test: m, Workers: 3, Backoff: 5 * time.Millisecond}
	want, _, err := dist.Run(context.Background(), cfg)
	if err != nil || want.Verdict != core.Fail {
		t.Fatalf("baseline run: %v, %v; fixture broken", want, err)
	}
	cfg.Launcher = &dist.ExecLauncher{Bin: bin, Dir: t.TempDir(), KillUnit: 1}
	got, stats, err := dist.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run through worker processes: %v (%+v)", err, stats)
	}
	// The injected kill must actually have cost a lease, or the test would pass
	// vacuously if the injection ever stopped firing.
	if stats.WorkerFailures != 1 {
		t.Fatalf("want exactly the injected worker failure, got %+v", stats)
	}
	got.Phase1.Duration, got.Phase2.Duration, want.Phase1.Duration, want.Phase2.Duration = 0, 0, 0, 0
	if got.Verdict != want.Verdict || got.Phase1 != want.Phase1 || got.Phase2 != want.Phase2 {
		t.Errorf("worker kill: %v %+v %+v\nbaseline: %v %+v %+v", got.Verdict, got.Phase1, got.Phase2, want.Verdict, want.Phase1, want.Phase2)
	}
	if g, w := fmt.Sprint(got.Violation), fmt.Sprint(want.Violation); g != w {
		t.Errorf("first violation differs:\n worker kill %s\n baseline    %s", g, w)
	}
}

// TestDistWorkerModeBadJob pins the worker half's error discipline: a worker
// handed a nonexistent job file must exit nonzero with a readable error, not
// hang or crash — the coordinator depends on that to fail the lease fast.
func TestDistWorkerModeBadJob(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real binaries")
	}
	bin := buildLineup(t)
	out, err := exec.Command(bin, "worker", filepath.Join(t.TempDir(), "nope.json")).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ProcessState.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "reading job") {
		t.Fatalf("unhelpful worker error:\n%s", out)
	}
}

// TestDistExecHonoursOptions: worker processes check what the coordinator
// planned — the job file carries core.Options and the test whole. A run
// through an ExecLauncher with the queue model deciding witnesses, GranSync,
// and a test with init and final sections gives the verdict, the first
// violation and the phase statistics of the sequential exhaustive check under
// the same options. (The job file used to carry seven options and the rows:
// workers fell back to the spec backend at GranAll, and -exec refused
// init/final sections outright.)
func TestDistExecHonoursOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary and runs worker processes")
	}
	bin := buildLineup(t)
	sub, _, ok := findSubject("ConcurrentQueue")
	if !ok {
		t.Fatal("no ConcurrentQueue")
	}
	model, _ := monitor.Builtin("queue")
	opts := core.Options{PreemptionBound: 2, Granularity: sched.GranSync, MonitorModel: model}
	for _, c := range []struct {
		name, test string
		want       core.Verdict
	}{
		// The init section leaves the queue as the model starts it.
		{"pass", "init: Enqueue(10) TryDequeue() / Enqueue(10) TryDequeue() / Enqueue(20) TryPeek() / final: Count()", core.Pass},
		// It leaves an element the model never saw enqueued: only the model
		// backend, and only if the worker ran the init section, rejects this.
		{"fail", "init: Enqueue(10) / TryDequeue() Enqueue(20) / TryPeek() / final: Count()", core.Fail},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := bench.ParseTest(sub, c.test)
			if err != nil {
				t.Fatal(err)
			}
			seq := opts
			seq.ExhaustPhase2 = true
			want, err := core.Check(sub, m, seq)
			if err != nil {
				t.Fatal(err)
			}
			if want.Verdict != c.want {
				t.Fatalf("fixture broken: the sequential check says %v", want.Verdict)
			}
			all := seq
			all.Granularity = sched.GranAll
			if r, err := core.Check(sub, m, all); err != nil || r.Phase2.Executions == want.Phase2.Executions {
				t.Fatalf("fixture broken: granularity does not show in the execution count (%v, %v)", r, err)
			}
			got, stats, err := dist.Run(context.Background(), dist.Config{
				Subject: sub, Test: m, Options: opts, Workers: 2, Depth: 2,
				Launcher: &dist.ExecLauncher{Bin: bin, Dir: t.TempDir(), KillUnit: -1},
			})
			if err != nil {
				t.Fatalf("dist.Run through worker processes: %v (%+v)", err, stats)
			}
			if stats.Units < 2 || stats.WorkerFailures != 0 {
				t.Fatalf("want a real split and healthy workers, got %+v", stats)
			}
			got.Phase1.Duration, got.Phase2.Duration, want.Phase1.Duration, want.Phase2.Duration = 0, 0, 0, 0
			if got.Verdict != want.Verdict || got.Phase1 != want.Phase1 || got.Phase2 != want.Phase2 {
				t.Errorf("workers: %v %+v %+v\nsequential: %v %+v %+v", got.Verdict, got.Phase1, got.Phase2, want.Verdict, want.Phase1, want.Phase2)
			}
			if g, w := fmt.Sprint(got.Violation), fmt.Sprint(want.Violation); g != w {
				t.Errorf("first violation differs:\n workers    %s\n sequential %s", g, w)
			}
		})
	}
}

// TestCheckTestProgressCountsUnits: the progress line of `check -test` counts
// the run's work units against the plan's number of them.
func TestCheckTestProgressCountsUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short mode")
	}
	bin := buildLineup(t)
	cmd := exec.Command(bin, append(append([]string(nil), distFixture...), "-progress")...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("the fixture found no violation")
	}
	var units int
	for _, line := range strings.Split(stderr.String(), "\n") {
		if _, err := fmt.Sscanf(line, "units: %d total", &units); err == nil {
			break
		}
	}
	if want := fmt.Sprintf("units %d/%d", units, units); units == 0 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr has no %q:\n%s", want, stderr.String())
	}
}
