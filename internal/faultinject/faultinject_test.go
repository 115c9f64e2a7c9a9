package faultinject_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/faultinject"
	"lineup/internal/history"
	"lineup/internal/sched"
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

func smallTest(sub *core.Subject) *core.Test {
	inc, _ := sub.FindOp("Inc()")
	get, _ := sub.FindOp("Get()")
	return &core.Test{Rows: [][]core.Op{{inc, get}, {inc}}}
}

// harness builds a released-on-cleanup harness and its wrapped subject.
// RequireNoLeaks is registered first so that its check runs after Release
// has freed every parked goroutine (cleanups run last-in first-out).
func harness(t *testing.T, kind faultinject.Kind) (*faultinject.Harness, *core.Subject) {
	t.Helper()
	sched.RequireNoLeaks(t)
	h := faultinject.New(kind)
	t.Cleanup(h.Release)
	return h, h.Wrap(counterSubject())
}

// checkContained runs a full check expecting contained failures of the
// kind's classification and an otherwise passing verdict (the counter is
// correct; failed executions contribute no history).
func checkContained(t *testing.T, kind faultinject.Kind, opts core.Options) (*faultinject.Harness, *core.Result) {
	t.Helper()
	h, sub := harness(t, kind)
	m := smallTest(sub)
	opts.MaxFailures = 10000
	res, err := core.Check(sub, m, opts)
	if err != nil {
		t.Fatalf("Check with contained %v faults: %v", kind, err)
	}
	if res.Verdict != core.Pass {
		t.Fatalf("verdict = %v, want Pass (failed executions must not poison the verdict): %v", res.Verdict, res.Violation)
	}
	if h.Injections() == 0 {
		t.Fatalf("harness injected no %v faults; the test exercises nothing", kind)
	}
	if len(res.Failures) == 0 {
		t.Fatalf("no failures recorded despite %d injections", h.Injections())
	}
	for i, f := range res.Failures {
		if f.Kind != kind.Expected() {
			t.Errorf("failure %d classified %v, want %v: %s", i, f.Kind, kind.Expected(), f.Message)
		}
		if len(f.Schedule) == 0 {
			t.Errorf("failure %d has no schedule prefix", i)
		}
	}
	return h, res
}

func TestPanicContainedAndClassified(t *testing.T) {
	_, res := checkContained(t, faultinject.KindPanic, core.Options{})
	for i, f := range res.Failures {
		if !strings.Contains(f.Message, "injected panic") {
			t.Errorf("failure %d message %q does not name the injected panic", i, f.Message)
		}
		if !strings.Contains(f.Stack, "faultinject") {
			t.Errorf("failure %d stack does not reach the injection site", i)
		}
	}
}

func TestHangContainedByWatchdog(t *testing.T) {
	checkContained(t, faultinject.KindHang, core.Options{Watchdog: 20 * time.Millisecond})
}

func TestSpinContainedByWatchdog(t *testing.T) {
	checkContained(t, faultinject.KindSpin, core.Options{Watchdog: 20 * time.Millisecond})
}

func TestLeakContainedAndDetected(t *testing.T) {
	checkContained(t, faultinject.KindLeak, core.Options{DetectLeaks: true})
}

// TestExploreHistoriesHonorsWatchdog: the observation-only entry point arms
// the same containment config as a check, so a subject blocked on an
// uninstrumented primitive yields a structured hung error instead of hanging
// the caller.
func TestExploreHistoriesHonorsWatchdog(t *testing.T) {
	_, sub := harness(t, faultinject.KindHang)
	m := smallTest(sub)
	done := make(chan error, 1)
	go func() {
		done <- core.ExploreHistories(sub, m, core.Options{Watchdog: 20 * time.Millisecond},
			func(*history.History) bool { return true })
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "execution hung") {
			t.Fatalf("err = %v, want the watchdog's hung-execution error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ExploreHistories hung on a blocked subject despite Options.Watchdog")
	}
}

func TestStrictModeAbortsOnFirstFault(t *testing.T) {
	_, sub := harness(t, faultinject.KindPanic)
	m := smallTest(sub)
	_, err := core.Check(sub, m, core.Options{})
	if err == nil {
		t.Fatalf("strict check (MaxFailures = 0) returned no error despite injected panics")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("strict check error %q does not carry the panic", err)
	}
}

func TestFailureBudgetAborts(t *testing.T) {
	_, sub := harness(t, faultinject.KindPanic)
	m := smallTest(sub)
	_, err := core.Check(sub, m, core.Options{MaxFailures: 1})
	var tm *core.TooManyFailuresError
	if !errors.As(err, &tm) {
		t.Fatalf("err = %v, want *TooManyFailuresError", err)
	}
	if tm.Limit != 1 || len(tm.Failures) != 1 {
		t.Fatalf("TooManyFailuresError carries limit %d with %d failures, want 1 and 1", tm.Limit, len(tm.Failures))
	}
}

func failureFingerprints(fs []core.RuntimeFailure) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%v|%v|%s", f.Kind, f.Schedule, f.Message)
	}
	return out
}

// TestParallelFailureSetMatchesSequential is the determinism acceptance
// check: the recorded failure set — and in particular the sequentially
// first failure — must be identical whether phase 2 runs on one worker or
// on four.
func TestParallelFailureSetMatchesSequential(t *testing.T) {
	_, sub := harness(t, faultinject.KindPanic)
	m := smallTest(sub)
	seqRes, err := core.Check(sub, m, core.Options{MaxFailures: 10000})
	if err != nil {
		t.Fatalf("sequential check: %v", err)
	}
	parRes, err := core.Check(sub, m, core.Options{MaxFailures: 10000, Workers: 4})
	if err != nil {
		t.Fatalf("parallel check: %v", err)
	}
	seqFP := failureFingerprints(seqRes.Failures)
	parFP := failureFingerprints(parRes.Failures)
	if len(seqFP) == 0 {
		t.Fatalf("sequential run recorded no failures")
	}
	if len(seqFP) != len(parFP) {
		t.Fatalf("failure counts differ: sequential %d, parallel %d", len(seqFP), len(parFP))
	}
	for i := range seqFP {
		if seqFP[i] != parFP[i] {
			t.Fatalf("failure %d differs:\n  sequential: %s\n  parallel:   %s", i, seqFP[i], parFP[i])
		}
	}
}

// TestParallelBudgetAbortMatchesSequential pins the other half of the
// determinism contract: when the failure budget is exceeded, the parallel
// explorer reports exactly the failures the sequential abort would.
func TestParallelBudgetAbortMatchesSequential(t *testing.T) {
	_, sub := harness(t, faultinject.KindPanic)
	m := smallTest(sub)
	var seqTM, parTM *core.TooManyFailuresError
	if _, err := core.Check(sub, m, core.Options{MaxFailures: 2}); !errors.As(err, &seqTM) {
		t.Fatalf("sequential err = %v, want *TooManyFailuresError", err)
	}
	if _, err := core.Check(sub, m, core.Options{MaxFailures: 2, Workers: 4}); !errors.As(err, &parTM) {
		t.Fatalf("parallel err = %v, want *TooManyFailuresError", err)
	}
	seqFP := failureFingerprints(seqTM.Failures)
	parFP := failureFingerprints(parTM.Failures)
	if len(seqFP) != len(parFP) {
		t.Fatalf("abort failure counts differ: sequential %d, parallel %d", len(seqFP), len(parFP))
	}
	for i := range seqFP {
		if seqFP[i] != parFP[i] {
			t.Fatalf("abort failure %d differs:\n  sequential: %s\n  parallel:   %s", i, seqFP[i], parFP[i])
		}
	}
}

// TestRecordedScheduleMatchesExploration ties the failure records back to
// real executions: walking the same schedule space with ForEachExecution,
// the first failing outcome's schedule is the recorded first failure's.
func TestRecordedScheduleMatchesExploration(t *testing.T) {
	_, sub := harness(t, faultinject.KindPanic)
	m := smallTest(sub)
	res, err := core.Check(sub, m, core.Options{MaxFailures: 10000})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatalf("no failures recorded")
	}
	var firstFailing []sched.ThreadID
	_, err = core.ForEachExecution(sub, m, core.Options{MaxFailures: 10000}, false, func(out *sched.Outcome) bool {
		if out.FailureKind() != sched.FailNone {
			firstFailing = append([]sched.ThreadID(nil), out.Schedule...)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("ForEachExecution: %v", err)
	}
	want := fmt.Sprint(res.Failures[0].Schedule)
	if got := fmt.Sprint(firstFailing); got != want {
		t.Fatalf("first failing schedule %s, recorded %s", got, want)
	}
}
