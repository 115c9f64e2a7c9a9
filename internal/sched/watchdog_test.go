package sched_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lineup/internal/sched"
)

// uncooperative builds a program whose thread B escapes the scheduler inside
// its op body by calling hang, which blocks or spins on an uninstrumented
// primitive until the returned release function is called.
func uncooperative(hang func()) sched.Program {
	return sched.Program{Threads: []func(*sched.Thread){
		opThread(1, "a"),
		func(t *sched.Thread) {
			t.OpStart("b0")
			hang()
			t.Point(sched.PointAtomic)
			t.OpEnd("b0", "ok")
		},
	}}
}

func TestWatchdogDetectsUninstrumentedBlock(t *testing.T) {
	sched.RequireNoLeaks(t)
	ch := make(chan struct{})
	defer close(ch) // lets the abandoned thread unwind at its next point
	s := sched.NewScheduler(sched.Config{Watchdog: 30 * time.Millisecond}, nil)
	out := s.Run(uncooperative(func() { <-ch }))
	if !out.Hung {
		t.Fatalf("expected hung outcome, got %+v", out)
	}
	if out.HungThread != "B" {
		t.Fatalf("expected hung thread B, got %q", out.HungThread)
	}
	if out.FailureKind() != sched.FailHung {
		t.Fatalf("FailureKind = %v, want FailHung", out.FailureKind())
	}
	if err := out.FailureError(); err == nil || !strings.Contains(err.Error(), "hung") {
		t.Fatalf("FailureError = %v, want hung error", err)
	}
	found := false
	for _, name := range out.LeakedThreads {
		if name == "B" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected B among leaked threads, got %v", out.LeakedThreads)
	}
}

func TestWatchdogDetectsBusySpin(t *testing.T) {
	sched.RequireNoLeaks(t)
	var release atomic.Bool
	defer release.Store(true)
	s := sched.NewScheduler(sched.Config{Watchdog: 30 * time.Millisecond}, nil)
	out := s.Run(uncooperative(func() {
		for !release.Load() {
			// A busy spin with no instrumented points: invisible to the
			// scheduler, only the wall-clock watchdog can catch it.
		}
	}))
	if !out.Hung || out.FailureKind() != sched.FailHung {
		t.Fatalf("expected hung outcome, got Hung=%v kind=%v", out.Hung, out.FailureKind())
	}
}

// TestWatchdogSparesSlowCooperative pins down the misclassification boundary:
// a thread that is merely slow between instrumented points must complete
// normally as long as each gap stays under the watchdog interval.
func TestWatchdogSparesSlowCooperative(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("slow")
			for i := 0; i < 3; i++ {
				time.Sleep(5 * time.Millisecond)
				t.Point(sched.PointAtomic)
			}
			t.OpEnd("slow", "ok")
		},
	}}
	s := sched.NewScheduler(sched.Config{Watchdog: 2 * time.Second}, nil)
	out := s.Run(prog)
	if out.Hung || out.Stuck || out.Err != nil {
		t.Fatalf("slow-but-cooperative execution misclassified: %+v", out)
	}
	if out.FailureKind() != sched.FailNone {
		t.Fatalf("FailureKind = %v, want FailNone", out.FailureKind())
	}
}

// TestWatchdogVsStepBudget checks the interaction of the two divergence
// detectors: an instrumented spin must be caught by the deterministic step
// budget (diverged/stuck outcome), not by the wall-clock watchdog, even when
// both are armed.
func TestWatchdogVsStepBudget(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("spin")
			for {
				t.Yield() // instrumented: the scheduler sees every iteration
			}
		},
	}}
	s := sched.NewScheduler(sched.Config{MaxOpSteps: 50, Watchdog: 30 * time.Second}, nil)
	out := s.Run(prog)
	if out.Hung {
		t.Fatalf("instrumented spin misclassified as hung")
	}
	if !out.Stuck {
		t.Fatalf("expected stuck (diverged) outcome, got %+v", out)
	}
	if out.FailureKind() != sched.FailNone {
		t.Fatalf("divergence is a cooperative outcome, not a failure; got %v", out.FailureKind())
	}
}

func TestDetectLeaksReportsRogueGoroutine(t *testing.T) {
	sched.RequireNoLeaks(t)
	ch := make(chan struct{})
	defer close(ch)
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("rogue")
			go func() { <-ch }() // escapes the scheduler entirely
			t.Point(sched.PointAtomic)
			t.OpEnd("rogue", "ok")
		},
	}}
	s := sched.NewScheduler(sched.Config{DetectLeaks: true, AbandonGrace: 20 * time.Millisecond}, nil)
	out := s.Run(prog)
	if out.Hung || out.Stuck || out.Err != nil {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	if out.LeakedGoroutines != 1 {
		t.Fatalf("LeakedGoroutines = %d, want 1", out.LeakedGoroutines)
	}
	if out.FailureKind() != sched.FailLeak {
		t.Fatalf("FailureKind = %v, want FailLeak", out.FailureKind())
	}
}

func TestDetectLeaksCleanRun(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	s := sched.NewScheduler(sched.Config{DetectLeaks: true}, nil)
	out := s.Run(prog)
	if out.LeakedGoroutines != 0 || out.FailureKind() != sched.FailNone {
		t.Fatalf("clean run reported leaks: %+v", out)
	}
}

// overlapPanicProgram panics in thread B's op whenever it observes thread A
// mid-operation, so some schedules fail and others pass — the shape the
// containment machinery must handle.
func overlapPanicProgram() sched.Program {
	inA := false
	return sched.Program{
		Setup: func(t *sched.Thread) { inA = false },
		Threads: []func(*sched.Thread){
			func(t *sched.Thread) {
				t.OpStart("a0")
				inA = true
				t.Point(sched.PointAtomic)
				inA = false
				t.OpEnd("a0", "ok")
			},
			func(t *sched.Thread) {
				t.OpStart("b0")
				t.Point(sched.PointAtomic)
				if inA {
					panic("overlap observed")
				}
				t.OpEnd("b0", "ok")
			},
		},
	}
}

func TestExploreContinueOnFailure(t *testing.T) {
	sched.RequireNoLeaks(t)
	cfg := sched.ExploreConfig{
		Config:          sched.Config{},
		PreemptionBound: sched.Unbounded,
	}

	// Without containment the exploration aborts at the first panic.
	_, err := sched.Explore(cfg, overlapPanicProgram(), func(o *sched.Outcome) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected panic error without ContinueOnFailure, got %v", err)
	}

	cfg.ContinueOnFailure = true
	var failed, passed int
	_, err = sched.Explore(cfg, overlapPanicProgram(), func(o *sched.Outcome) bool {
		switch o.FailureKind() {
		case sched.FailPanic:
			failed++
			if len(o.Schedule) == 0 {
				t.Fatalf("failed outcome carries no schedule prefix")
			}
		case sched.FailNone:
			passed++
		default:
			t.Fatalf("unexpected failure kind %v", o.FailureKind())
		}
		return true
	})
	if err != nil {
		t.Fatalf("contained exploration errored: %v", err)
	}
	if failed == 0 || passed == 0 {
		t.Fatalf("expected a mix of failed and passing schedules, got failed=%d passed=%d", failed, passed)
	}
}

// TestFailedScheduleReplays reproduces a contained panic from the recorded
// schedule prefix of its failure, the workflow a bug report supports.
func TestFailedScheduleReplays(t *testing.T) {
	sched.RequireNoLeaks(t)
	var schedule []sched.ThreadID
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, ContinueOnFailure: true}
	_, err := sched.Explore(cfg, overlapPanicProgram(), func(o *sched.Outcome) bool {
		if o.FailureKind() == sched.FailPanic {
			schedule = o.Schedule
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if schedule == nil {
		t.Fatalf("no failing schedule found")
	}
	out, err := sched.ReplaySchedule(sched.Config{}, overlapPanicProgram(), schedule)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if out.FailureKind() != sched.FailPanic || !strings.Contains(out.Err.Error(), "overlap observed") {
		t.Fatalf("replay did not reproduce the panic: %+v", out)
	}
}

// TestAbandonedExecutionLeavesNoThreadsBehind is the kill-path leak
// assertion: once the abandoned subject is released, every scheduler thread
// goroutine must self-destruct (RequireNoLeaks verifies at cleanup), and a
// fresh execution must be unaffected.
func TestAbandonedExecutionLeavesNoThreadsBehind(t *testing.T) {
	sched.RequireNoLeaks(t)
	ch := make(chan struct{})
	s := sched.NewScheduler(sched.Config{Watchdog: 30 * time.Millisecond}, nil)
	out := s.Run(uncooperative(func() { <-ch }))
	if !out.Hung {
		t.Fatalf("expected hung outcome")
	}
	close(ch) // release: the leaked thread reaches its next point and dies

	// The runtime stays healthy: an unrelated execution completes normally.
	s2 := sched.NewScheduler(sched.Config{}, nil)
	out2 := s2.Run(sched.Program{Threads: []func(*sched.Thread){opThread(2, "a")}})
	if out2.Stuck || out2.Err != nil || out2.Hung {
		t.Fatalf("follow-up execution failed: %+v", out2)
	}
}

// TestWatchdogTimersReleasedOnCompletion is the regression test for the
// timer-leak fix: every execution that arms the wall-clock watchdog must
// stop and drain its timer when Run returns, on the normal path and the
// abandonment path alike. The live-timer gauge must read zero after any mix
// of outcomes — before the fix, completed executions left their timers
// armed until expiry, and a stale fire could bleed a spurious hung verdict
// into the next execution's recv.
func TestWatchdogTimersReleasedOnCompletion(t *testing.T) {
	sched.RequireNoLeaks(t)
	if n := sched.WatchdogTimersLive(); n != 0 {
		t.Fatalf("%d watchdog timers live before the test", n)
	}

	// Normal completions: a small exploration with the watchdog armed on
	// every execution.
	execs := 0
	if _, err := sched.Explore(sched.ExploreConfig{
		Config:          sched.Config{Watchdog: 30 * time.Second},
		PreemptionBound: 2,
	}, sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}},
		func(o *sched.Outcome) bool {
			execs++
			return true
		}); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if execs == 0 {
		t.Fatal("exploration ran no executions")
	}
	if n := sched.WatchdogTimersLive(); n != 0 {
		t.Errorf("%d watchdog timers live after %d completed executions, want 0", n, execs)
	}

	// Abandonment: the watchdog fires, the execution is abandoned, and the
	// fired timer must be released too.
	ch := make(chan struct{})
	defer close(ch)
	s := sched.NewScheduler(sched.Config{Watchdog: 30 * time.Millisecond}, nil)
	out := s.Run(uncooperative(func() { <-ch }))
	if !out.Hung {
		t.Fatalf("expected hung outcome, got %+v", out)
	}
	if n := sched.WatchdogTimersLive(); n != 0 {
		t.Errorf("%d watchdog timers live after an abandoned execution, want 0", n)
	}
}

// TestWatchdogSparesLongCooperative: the watchdog measures the gap between
// scheduling points, not the execution. One that runs for three watchdog
// intervals with every gap under a quarter of one is healthy.
func TestWatchdogSparesLongCooperative(t *testing.T) {
	sched.RequireNoLeaks(t)
	const watchdog = 200 * time.Millisecond
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("long")
			for i := 0; i < 15; i++ {
				time.Sleep(watchdog / 5)
				t.Point(sched.PointAtomic)
			}
			t.OpEnd("long", "ok")
		},
		opThread(1, "b"),
	}}
	start := time.Now()
	out := sched.NewScheduler(sched.Config{Watchdog: watchdog}, nil).Run(prog)
	if elapsed := time.Since(start); elapsed < 3*watchdog {
		t.Fatalf("execution took %v, want at least three watchdog intervals", elapsed)
	}
	if out.Hung || out.Stuck || out.Err != nil {
		t.Fatalf("long cooperative execution misclassified: %+v", out)
	}
}

// TestWatchdogNamesThreadHungAfterSwitch: the hung thread is the one holding
// the baton, also when it got it from a sibling's goroutine rather than from
// Run (the controller starts A and preempts it for B at A's first point), and
// the hang is detected within two watchdog intervals.
func TestWatchdogNamesThreadHungAfterSwitch(t *testing.T) {
	sched.RequireNoLeaks(t)
	const watchdog, grace = 100 * time.Millisecond, 20 * time.Millisecond
	ch := make(chan struct{})
	defer close(ch)
	ctrl := &scripted{fn: func(call int, _ sched.ThreadID, _ bool, enabled []sched.ThreadID) sched.ThreadID {
		if call == 0 {
			return enabled[0]
		}
		return enabled[len(enabled)-1]
	}}
	start := time.Now()
	out := sched.NewScheduler(sched.Config{Watchdog: watchdog, AbandonGrace: grace}, ctrl).Run(uncooperative(func() { <-ch }))
	elapsed := time.Since(start)
	if !out.Hung || out.HungThread != "B" {
		t.Fatalf("Hung = %v, HungThread = %q, want B", out.Hung, out.HungThread)
	}
	if len(out.Schedule) < 2 || out.Schedule[0] == out.Schedule[1] {
		t.Fatalf("schedule %v has no switch before the hang", out.Schedule)
	}
	if limit := 2*watchdog + grace + watchdog; elapsed < watchdog || elapsed > limit {
		t.Fatalf("hang detected after %v, want between %v and %v", elapsed, watchdog, limit)
	}
}

// TestAbandonedThreadTakesNoDecision: once Run has returned from an abandoned
// execution the controller belongs to its owner again (an explorer is already
// running the next execution). The hung thread, released later, must unwind
// without another Pick, whether it next reaches a point or simply returns.
// Its siblings A and C are parked at a point and slow to unwind, so they
// still look enabled when it does.
func TestAbandonedThreadTakesNoDecision(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail func(*sched.Thread) // what thread B does once released
	}{
		{"reaches-a-point", func(t *sched.Thread) { t.Point(sched.PointAtomic) }},
		{"returns", func(*sched.Thread) {}},
	} {
		// A starts, is preempted for C, which is preempted for B, which hangs.
		order := []sched.ThreadID{0, 2, 1, 1}
		ctrl := &scripted{fn: func(call int, _ sched.ThreadID, _ bool, enabled []sched.ThreadID) sched.ThreadID {
			if call < len(order) {
				return order[call]
			}
			return enabled[0]
		}}
		picks := 0
		t.Run(tc.name, func(t *testing.T) {
			sched.RequireNoLeaks(t) // its cleanup waits for every thread's goroutine
			release := make(chan struct{})
			slowToUnwind := func(name string) func(*sched.Thread) {
				return func(th *sched.Thread) {
					defer func() { <-release }()
					th.OpStart(name)
					th.OpEnd(name, "ok")
				}
			}
			prog := sched.Program{Threads: []func(*sched.Thread){
				slowToUnwind("a0"),
				func(th *sched.Thread) {
					th.OpStart("b0")
					<-release
					tc.tail(th)
				},
				slowToUnwind("c0"),
			}}
			cfg := sched.Config{Watchdog: 30 * time.Millisecond, AbandonGrace: 10 * time.Millisecond}
			out := sched.NewScheduler(cfg, ctrl).Run(prog)
			if !out.Hung || out.HungThread != "B" || len(out.LeakedThreads) != 3 {
				t.Fatalf("Hung = %v, HungThread = %q, LeakedThreads = %v; want B hung and all three leaked",
					out.Hung, out.HungThread, out.LeakedThreads)
			}
			picks = ctrl.calls
			close(release)
		})
		if ctrl.calls != picks {
			t.Errorf("%s: the abandoned thread took %d decision(s) after Run returned", tc.name, ctrl.calls-picks)
		}
		if n := sched.WatchdogTimersLive(); n != 0 {
			t.Errorf("%s: %d watchdog timers live after an abandoned execution, want 0", tc.name, n)
		}
	}
}
