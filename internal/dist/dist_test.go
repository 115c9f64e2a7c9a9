package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/faultinject"
	"lineup/internal/history"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

func counterSubject() *core.Subject {
	inc := core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter).Inc(t)
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter).Get(t))
	}}
	return &core.Subject{
		Name: "Counter",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []core.Op{inc, get},
	}
}

func counter1Subject() *core.Subject {
	inc := core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter1).Inc(t)
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter1).Get(t))
	}}
	return &core.Subject{
		Name: "Counter1",
		New:  func(t *sched.Thread) any { return collections.NewCounter1(t) },
		Ops:  []core.Op{inc, get},
	}
}

func testFor(sub *core.Subject) *core.Test {
	inc, _ := sub.FindOp("Inc()")
	get, _ := sub.FindOp("Get()")
	return &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
}

// wantResult is the sequential ground truth every distributed run must
// reproduce bit-identically: the exhaustive sequential check with durations
// zeroed.
func wantResult(t *testing.T, sub *core.Subject, m *core.Test, opts core.Options) *core.Result {
	t.Helper()
	seqOpts := opts
	seqOpts.ExhaustPhase2 = true
	res, err := core.Check(sub, m, seqOpts)
	if err != nil {
		t.Fatalf("sequential check: %v", err)
	}
	res.Phase1.Duration, res.Phase2.Duration = 0, 0
	return res
}

func requireSameResult(t *testing.T, tag string, got, want *core.Result) {
	t.Helper()
	got.Phase1.Duration, got.Phase2.Duration = 0, 0
	if got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict %v, sequential %v", tag, got.Verdict, want.Verdict)
	}
	if got.Phase1 != want.Phase1 || got.Phase2 != want.Phase2 {
		t.Fatalf("%s: stats differ:\n got %+v / %+v\nwant %+v / %+v",
			tag, got.Phase1, got.Phase2, want.Phase1, want.Phase2)
	}
	gj, _ := json.Marshal(got.Violation)
	wj, _ := json.Marshal(want.Violation)
	if string(gj) != string(wj) {
		t.Fatalf("%s: violation differs:\n got %s\nwant %s", tag, gj, wj)
	}
	if len(got.Failures) != len(want.Failures) {
		t.Fatalf("%s: %d failures, sequential %d", tag, len(got.Failures), len(want.Failures))
	}
}

// TestDistMatchesSequentialHealthy: with no faults at all, the coordinator's
// merged result is bit-identical to sequential DFS for passing and failing
// subjects, across worker counts and reductions.
func TestDistMatchesSequentialHealthy(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, sub := range []*core.Subject{counterSubject(), counter1Subject()} {
		m := testFor(sub)
		for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
			opts := core.Options{Reduction: red}
			want := wantResult(t, sub, m, opts)
			for _, workers := range []int{1, 3} {
				res, stats, err := dist.Run(context.Background(), dist.Config{
					Subject: sub, Test: m, Options: opts,
					Workers: workers, Depth: 2,
				})
				tag := fmt.Sprintf("%s red=%v workers=%d", sub.Name, red, workers)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				requireSameResult(t, tag, res, want)
				if stats.Done != stats.Units || stats.LeasesGranted < stats.Units {
					t.Fatalf("%s: inconsistent stats %+v", tag, stats)
				}
			}
		}
	}
}

// TestDistRandomizedKillDeterminism is the acceptance gate: across seeds and
// fault kinds (worker crash, silent hang, stall after one heartbeat), the
// merged verdict, statistics, and first violation stay bit-identical to
// sequential DFS — lease expiry, exponential backoff, and idempotent replay
// absorb every disruption.
func TestDistRandomizedKillDeterminism(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, sub := range []*core.Subject{counterSubject(), counter1Subject()} {
		m := testFor(sub)
		opts := core.Options{Reduction: sched.ReductionSleep}
		want := wantResult(t, sub, m, opts)
		injected := 0
		for _, fault := range []faultinject.ProcFault{faultinject.ProcCrash, faultinject.ProcHang, faultinject.ProcStall} {
			for seed := int64(1); seed <= 3; seed++ {
				plan := &faultinject.ProcPlan{Seed: seed, Every: 2, Fault: fault}
				cfg := dist.Config{
					Subject: sub, Test: m, Options: opts,
					Workers: 3, Depth: 2,
					Lease:   120 * time.Millisecond,
					Backoff: time.Millisecond,
				}
				cfg.Launcher = &faultinject.FlakyLauncher{
					Inner: &dist.InProcLauncher{Subject: sub, Test: m, Options: opts},
					Plan:  plan,
				}
				res, stats, err := dist.Run(context.Background(), cfg)
				tag := fmt.Sprintf("%s fault=%v seed=%d", sub.Name, fault, seed)
				if err != nil {
					t.Fatalf("%s: %v (stats %+v)", tag, err, stats)
				}
				requireSameResult(t, tag, res, want)
				if plan.Injections() > 0 && stats.Retries == 0 {
					t.Fatalf("%s: %d faults injected but no retries recorded: %+v", tag, plan.Injections(), stats)
				}
				injected += plan.Injections()
			}
		}
		if injected == 0 {
			t.Fatalf("%s: no faults injected across all seeds; gate is vacuous", sub.Name)
		}
	}
}

// TestDistCoordinatorCrashResume: a coordinator cancelled mid-run (the
// in-process stand-in for kill -9; the CLI test covers the real signal)
// resumes from the durable manifest — completed units are merged from their
// journaled reports, not re-run, and the final result is bit-identical to an
// uninterrupted run.
func TestDistCoordinatorCrashResume(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counter1Subject()
	m := testFor(sub)
	opts := core.Options{Reduction: sched.ReductionSleep}
	want := wantResult(t, sub, m, opts)
	dir := t.TempDir()
	cfg := dist.Config{
		Subject: sub, Test: m, Options: opts,
		Workers: 1, Depth: 2, Dir: dir,
	}

	// Phase 1 of the test: run with a launcher that stalls after the first
	// completed unit, and cancel the coordinator once the manifest journals
	// that unit as done.
	ctx, cancel := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer cancel()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err == nil && strings.Contains(string(data), `"state": "done"`) {
				close(firstDone)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	_, stats, err := dist.Run(ctx, cfg)
	select {
	case <-firstDone:
	default:
		t.Fatalf("coordinator finished before any unit was journaled (err=%v stats=%+v); fixture too fast", err, stats)
	}
	if err == nil {
		// The whole run beat the cancel; resume still must work (trivially).
		t.Logf("run completed before cancellation; resume path exercises only restored units")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}

	res, stats2, err := dist.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if stats2.Resumed == 0 {
		t.Fatalf("resume restored no units (stats %+v); double-count guard untested", stats2)
	}
	if stats2.Resumed+stats2.Done != stats2.Units {
		t.Fatalf("resume accounting broken: %+v", stats2)
	}
	requireSameResult(t, "resumed", res, want)
}

// TestDistPoisonedUnits: when a unit fails every attempt, the run degrades
// into a structured *PoisonedUnitsError naming the poisoned units and the
// merged statistics of the completed ones — no hang, no panic, and the
// healthy subtrees still ran.
func TestDistPoisonedUnits(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	m := testFor(sub)
	// The plan's hash decides which units are hit; scan seeds (deterministic
	// order) for one that poisons some units but not all, so the degradation
	// path AND the healthy-units-still-finish property are both exercised.
	for seed := int64(1); seed <= 20; seed++ {
		plan := &faultinject.ProcPlan{Seed: seed, Every: 2, Fault: faultinject.ProcCrash, Repeat: 10}
		cfg := dist.Config{
			Subject: sub, Test: m,
			Workers: 2, Depth: 2,
			MaxAttempts: 2, Backoff: time.Millisecond,
		}
		cfg.Launcher = &faultinject.FlakyLauncher{
			Inner: &dist.InProcLauncher{Subject: sub, Test: m},
			Plan:  plan,
		}
		res, stats, err := dist.Run(context.Background(), cfg)
		var pe *dist.PoisonedUnitsError
		if err == nil {
			continue // this seed hit no units
		}
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: want *PoisonedUnitsError, got %v", seed, err)
		}
		if res != nil {
			t.Fatalf("seed %d: poisoned run returned a full result (stats %+v)", seed, stats)
		}
		if len(pe.Poisoned) == 0 || len(pe.Poisoned)+pe.Done != pe.Units {
			t.Fatalf("seed %d: poisoned accounting broken: %+v", seed, pe)
		}
		if stats.Poisoned != len(pe.Poisoned) || stats.Retries == 0 {
			t.Fatalf("seed %d: stats %+v inconsistent with %d poisoned units", seed, stats, len(pe.Poisoned))
		}
		for _, p := range pe.Poisoned {
			if p.Attempts != cfg.MaxAttempts || p.LastErr == "" {
				t.Fatalf("seed %d: poisoned unit %+v: want %d attempts and a last error", seed, p, cfg.MaxAttempts)
			}
		}
		if !strings.Contains(err.Error(), "retry budget") {
			t.Fatalf("seed %d: error message unhelpful: %v", seed, err)
		}
		if pe.Done == 0 {
			continue // every unit was hit; look for a mixed seed
		}
		if pe.Partial.Executions == 0 {
			t.Fatalf("seed %d: %d done units left no partial stats: %+v", seed, pe.Done, pe)
		}
		return // found and verified a mixed poisoned/done outcome
	}
	t.Fatal("no seed in 1..20 produced a mixed poisoned/done outcome")
}

// TestDistManifestMismatch: resuming a manifest written under a different
// configuration is rejected with every mismatched field named in one error.
func TestDistManifestMismatch(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	m := testFor(sub)
	dir := t.TempDir()
	if _, _, err := dist.Run(context.Background(), dist.Config{
		Subject: sub, Test: m, Workers: 2, Depth: 2, Dir: dir,
	}); err != nil {
		t.Fatalf("base run: %v", err)
	}
	_, _, err := dist.Run(context.Background(), dist.Config{
		Subject: sub, Test: m, Workers: 2, Depth: 1, Dir: dir,
		Options: core.Options{PreemptionBound: 1, Reduction: sched.ReductionSleep},
	})
	if err == nil {
		t.Fatal("mismatched resume was accepted")
	}
	for _, field := range []string{"preemption_bound", "reduction", "depth"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("mismatch error omits %q: %v", field, err)
		}
	}
}

// TestDistTelemetry: the lease lifecycle shows up in the shared collector,
// in step with the Stats the coordinator returns.
func TestDistTelemetry(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := counterSubject()
	m := testFor(sub)
	tel := telemetry.New()
	plan := &faultinject.ProcPlan{Seed: 2, Every: 2, Fault: faultinject.ProcCrash}
	opts := core.Options{Telemetry: tel}
	cfg := dist.Config{
		Subject: sub, Test: m, Options: opts,
		Workers: 2, Depth: 2, Backoff: time.Millisecond, Telemetry: tel,
	}
	cfg.Launcher = &faultinject.FlakyLauncher{
		Inner: &dist.InProcLauncher{Subject: sub, Test: m, Options: opts},
		Plan:  plan,
	}
	_, stats, err := dist.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Each lease event is counted by one statement, into both: every field of
	// Stats that counts one equals its Dist* counter.
	for k, want := range map[telemetry.Counter]int{
		telemetry.DistLeasesGranted:  stats.LeasesGranted,
		telemetry.DistLeasesExpired:  stats.LeasesExpired,
		telemetry.DistRetries:        stats.Retries,
		telemetry.DistUnitsDone:      stats.Done,
		telemetry.DistUnitsPoisoned:  stats.Poisoned,
		telemetry.DistStaleReports:   stats.StaleReports,
		telemetry.DistWorkerFailures: stats.WorkerFailures,
	} {
		if got := tel.Get(k); got != int64(want) {
			t.Errorf("%s = %d, Stats says %d (%+v)", k, got, want, stats)
		}
	}
	if plan.Injections() > 0 && stats.WorkerFailures == 0 {
		t.Fatalf("injected crashes left no worker failures: %+v", stats)
	}
}

// TestDistShippedSpecReportsByteIdentical pins the phase-1 spec-shipping
// optimization: a worker that rebuilds the specification from the job
// file's exported serial histories (a JSON round trip, exactly what
// ExecLauncher ships) must produce a unit report byte-identical to one that
// re-synthesizes the spec locally — for every unit of the plan, passing and
// failing subjects alike.
func TestDistShippedSpecReportsByteIdentical(t *testing.T) {
	t.Parallel()
	for _, sub := range []*core.Subject{counterSubject(), counter1Subject()} {
		m := testFor(sub)
		opts := core.Options{PreemptionBound: 2}
		plan, err := core.PlanUnits(sub, m, opts, 2)
		if err != nil {
			t.Fatalf("%s: plan: %v", sub.Name, err)
		}
		if len(plan.Units) < 2 {
			t.Fatalf("%s: plan has %d units; want a real split", sub.Name, len(plan.Units))
		}
		// Round-trip the spec the way the job file does.
		wire, err := json.Marshal(plan.Spec.Export())
		if err != nil {
			t.Fatalf("%s: marshal spec: %v", sub.Name, err)
		}
		var hs []*history.SerialHistory
		if err := json.Unmarshal(wire, &hs); err != nil {
			t.Fatalf("%s: unmarshal spec: %v", sub.Name, err)
		}
		shipped := history.ImportSpec(hs)
		for _, u := range plan.Units {
			local, err := core.CheckUnit(sub, m, opts, u, nil)
			if err != nil {
				t.Fatalf("%s unit %d: local synth: %v", sub.Name, u.Seq, err)
			}
			remote, err := core.CheckUnitWithSpec(sub, m, opts, u, shipped, nil)
			if err != nil {
				t.Fatalf("%s unit %d: shipped spec: %v", sub.Name, u.Seq, err)
			}
			lj, _ := json.Marshal(local)
			rj, _ := json.Marshal(remote)
			if string(lj) != string(rj) {
				t.Fatalf("%s unit %d: shipped-spec report differs:\n local %s\nremote %s",
					sub.Name, u.Seq, lj, rj)
			}
		}
		t.Logf("%s: %d unit reports byte-identical with the shipped spec", sub.Name, len(plan.Units))
	}
}
