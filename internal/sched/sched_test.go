package sched_test

import (
	"errors"
	"fmt"
	"testing"

	"lineup/internal/sched"
)

// opThread builds a thread body that performs n trivial operations, each
// with a single instrumented atomic point between start and end.
func opThread(n int, label string) func(t *sched.Thread) {
	return func(t *sched.Thread) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s%d", label, i)
			t.OpStart(name)
			t.Point(sched.PointAtomic)
			t.OpEnd(name, "ok")
		}
	}
}

func exploreAll(t *testing.T, cfg sched.ExploreConfig, prog sched.Program) ([]*sched.Outcome, sched.ExploreStats) {
	t.Helper()
	var outs []*sched.Outcome
	stats, err := sched.Explore(cfg, prog, func(o *sched.Outcome) bool {
		if o.Err != nil {
			t.Fatalf("execution error: %v", o.Err)
		}
		outs = append(outs, o)
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return outs, stats
}

func serialKey(o *sched.Outcome) string {
	s := ""
	for _, e := range o.Events {
		if e.Kind == sched.EvCall {
			s += fmt.Sprintf("%d:%s;", e.Thread, e.Op)
		}
	}
	if o.Stuck {
		s += "#"
	}
	return s
}

// exploreSerial enumerates prog in serial mode and fails unless every
// execution is a distinct serial history: serial decisions are taken only
// between operations, so no history is reached twice.
func exploreSerial(t *testing.T, cfg sched.Config, prog sched.Program) []*sched.Outcome {
	t.Helper()
	cfg.Serial = true
	outs, stats := exploreAll(t, sched.ExploreConfig{Config: cfg, PreemptionBound: sched.Unbounded}, prog)
	seen := map[string]bool{}
	for _, o := range outs {
		seen[serialKey(o)] = true
	}
	if len(seen) != len(outs) || stats.Executions != len(outs) {
		t.Fatalf("%d executions reached %d distinct serial histories", stats.Executions, len(seen))
	}
	return outs
}

func TestSerialEnumerationTwoByTwo(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	outs := exploreSerial(t, sched.Config{}, prog)
	for _, o := range outs {
		if o.Stuck {
			t.Fatalf("unexpected stuck serial execution")
		}
	}
	// Serial interleavings of 2+2 operations: C(4,2) = 6.
	if len(outs) != 6 {
		t.Fatalf("expected exactly 6 serial executions, got %d", len(outs))
	}
}

// TestSerialEnumeration1680 reproduces the paper's Section 5.5 count: a 3x3
// test has 1680 full serial interleavings (9! / (3!)^3), and serial
// exploration runs exactly that many executions.
func TestSerialEnumeration1680(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		opThread(3, "a"), opThread(3, "b"), opThread(3, "c"),
	}}
	if outs := exploreSerial(t, sched.Config{}, prog); len(outs) != 1680 {
		t.Fatalf("expected exactly 1680 serial executions, got %d", len(outs))
	}
}

// TestSerialEnumerationShapes covers the thread shapes around the rule that
// the code before a thread's first OpStart is thread start, not a decision.
func TestSerialEnumerationShapes(t *testing.T) {
	sched.RequireNoLeaks(t)
	threads := func(bodies ...func(*sched.Thread)) []func(*sched.Thread) { return bodies }
	blocksFirst := func(th *sched.Thread) {
		var ws sched.WaitSet
		th.OpStart("wait")
		ws.Wait(th)
		th.OpEnd("wait", "ok")
	}
	spinsFirst := func(th *sched.Thread) {
		th.OpStart("spin")
		for {
			th.Point(sched.PointAtomic)
		}
	}
	for _, tc := range []struct {
		name  string
		prog  sched.Program
		execs int // serial executions
		stuck int // of which stuck
	}{
		{"empty row", sched.Program{Threads: threads(opThread(2, "a"), opThread(0, "b"), opThread(2, "c"))}, 6, 0},
		{"only empty rows", sched.Program{Threads: threads(opThread(0, "a"), opThread(0, "b"))}, 1, 0},
		{"setup and teardown", sched.Program{
			Setup:    func(th *sched.Thread) { th.Point(sched.PointAtomic) },
			Threads:  threads(opThread(2, "a"), opThread(2, "b")),
			Teardown: opThread(2, "f"),
		}, 6, 0},
		// a0 a1 wait#, a0 wait#, wait#: the blocked call ends the history
		// wherever it is scheduled.
		{"first operation blocks", sched.Program{Threads: threads(opThread(2, "a"), blocksFirst)}, 3, 3},
		{"first operation diverges", sched.Program{Threads: threads(opThread(2, "a"), spinsFirst)}, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs := exploreSerial(t, sched.Config{MaxOpSteps: 50}, tc.prog)
			stuck := 0
			for _, o := range outs {
				if o.Stuck {
					stuck++
				}
			}
			if len(outs) != tc.execs || stuck != tc.stuck {
				t.Fatalf("%d serial executions (%d stuck), want %d (%d stuck)", len(outs), stuck, tc.execs, tc.stuck)
			}
		})
	}
}

func TestPreemptionBoundZeroGivesThreadOrderings(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	outs, _ := exploreAll(t, sched.ExploreConfig{
		Config:          sched.Config{},
		PreemptionBound: 0,
	}, prog)
	// With no preemptions allowed, the only schedules are "A fully, then B"
	// and "B fully, then A".
	if len(outs) != 2 {
		t.Fatalf("expected exactly 2 schedules at preemption bound 0, got %d", len(outs))
	}
}

func TestPreemptionBoundMonotone(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	prev := 0
	for bound := 0; bound <= 3; bound++ {
		outs, _ := exploreAll(t, sched.ExploreConfig{
			Config:          sched.Config{},
			PreemptionBound: bound,
		}, prog())
		if len(outs) < prev {
			t.Fatalf("schedule count decreased when bound grew: bound=%d count=%d prev=%d", bound, len(outs), prev)
		}
		prev = len(outs)
	}
}

func TestSetupRunsBeforeThreadsAndTeardownAfter(t *testing.T) {
	sched.RequireNoLeaks(t)
	var order []string
	prog := sched.Program{
		Setup: func(t *sched.Thread) { order = append(order, "setup") },
		Threads: []func(*sched.Thread){
			func(t *sched.Thread) {
				t.OpStart("x")
				t.OpEnd("x", "ok")
				order = append(order, "thread")
			},
		},
		Teardown: func(t *sched.Thread) { order = append(order, "teardown") },
	}
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(prog)
	if out.Err != nil || out.Stuck {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	want := []string{"setup", "thread", "teardown"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestDeadlockIsStuck(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Two threads block on wait sets that nobody signals.
	var ws1, ws2 sched.WaitSet
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("w1")
			ws1.Wait(t)
			t.OpEnd("w1", "ok")
		},
		func(t *sched.Thread) {
			t.OpStart("w2")
			ws2.Wait(t)
			t.OpEnd("w2", "ok")
		},
	}}
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(prog)
	if !out.Stuck {
		t.Fatalf("expected stuck outcome")
	}
	// Both calls must be recorded as pending (calls without returns).
	calls, rets := 0, 0
	for _, e := range out.Events {
		if e.Kind == sched.EvCall {
			calls++
		} else {
			rets++
		}
	}
	if calls != 2 || rets != 0 {
		t.Fatalf("expected 2 pending calls, got calls=%d rets=%d", calls, rets)
	}
}

func TestWaitSetSignalWakesWaiter(t *testing.T) {
	sched.RequireNoLeaks(t)
	var ws sched.WaitSet
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("wait")
			ws.Wait(t)
			t.OpEnd("wait", "ok")
		},
		func(t *sched.Thread) {
			t.OpStart("signal")
			t.Point(sched.PointAtomic)
			ws.Broadcast(t)
			t.OpEnd("signal", "ok")
		},
	}}
	// Under every schedule the waiter must eventually complete: either it
	// waits after the broadcast has not happened yet and is woken, or the
	// broadcast happened first... which would lose the wakeup. This test
	// documents that a bare wait set CAN lose a pre-registration broadcast
	// (Mesa semantics): some schedules are stuck. The condition-variable
	// pattern in vsync avoids this by registering first.
	stuck, done := 0, 0
	_, err := sched.Explore(sched.ExploreConfig{
		Config:          sched.Config{},
		PreemptionBound: sched.Unbounded,
	}, prog, func(o *sched.Outcome) bool {
		if o.Err != nil {
			t.Fatalf("execution error: %v", o.Err)
		}
		if o.Stuck {
			stuck++
		} else {
			done++
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if done == 0 {
		t.Fatalf("expected at least one schedule where the waiter completes")
	}
	if stuck == 0 {
		t.Fatalf("expected at least one schedule where the broadcast precedes the wait (lost wakeup)")
	}
}

func TestDivergenceDetected(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(t *sched.Thread) {
			t.OpStart("spin")
			for {
				t.Point(sched.PointAtomic)
			}
		},
	}}
	s := sched.NewScheduler(sched.Config{MaxOpSteps: 100}, nil)
	out := s.Run(prog)
	if !out.Stuck {
		t.Fatalf("expected diverging loop to be reported as stuck")
	}
}

func TestReplayReproducesEvents(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	// Take the 5th schedule of an exploration and replay it.
	var want []sched.OpEvent
	var schedule []sched.ThreadID
	n := 0
	_, err := sched.Explore(sched.ExploreConfig{
		Config:          sched.Config{},
		PreemptionBound: sched.Unbounded,
	}, mk(), func(o *sched.Outcome) bool {
		n++
		if n == 5 {
			want = o.Events
			return true
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	_ = schedule
	if want == nil {
		t.Skip("fewer than 5 schedules")
	}
	// Re-explore and confirm the 5th schedule yields identical events
	// (exploration is fully deterministic).
	n = 0
	_, err = sched.Explore(sched.ExploreConfig{
		Config:          sched.Config{},
		PreemptionBound: sched.Unbounded,
	}, mk(), func(o *sched.Outcome) bool {
		n++
		if n == 5 {
			if fmt.Sprint(o.Events) != fmt.Sprint(want) {
				t.Fatalf("replay mismatch:\n got %v\nwant %v", o.Events, want)
			}
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
}

func TestExecutionBudget(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		opThread(3, "a"), opThread(3, "b"), opThread(3, "c"),
	}}
	_, err := sched.Explore(sched.ExploreConfig{
		Config:          sched.Config{Serial: true},
		PreemptionBound: sched.Unbounded,
		MaxExecutions:   10,
	}, prog, func(o *sched.Outcome) bool { return true })
	if err == nil {
		t.Fatalf("expected budget error")
	}
}

func TestRecordingControllerAndReplay(t *testing.T) {
	sched.RequireNoLeaks(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	// Record the decisions of one run under the default controller.
	rc := &sched.RecordingController{Inner: pickSecond{}}
	s := sched.NewScheduler(sched.Config{}, rc)
	out1 := s.Run(mk())
	if out1.Err != nil {
		t.Fatalf("run: %v", out1.Err)
	}
	if len(rc.Schedule) == 0 {
		t.Fatalf("no decisions recorded")
	}
	// Replaying the recorded schedule reproduces the events exactly.
	out2, err := sched.ReplaySchedule(sched.Config{}, mk(), rc.Schedule)
	if err != nil {
		t.Fatalf("replay divergence: %v", err)
	}
	if out2.Err != nil {
		t.Fatalf("replay: %v", out2.Err)
	}
	if fmt.Sprint(out1.Events) != fmt.Sprint(out2.Events) {
		t.Fatalf("replay diverged:\n got %v\nwant %v", out2.Events, out1.Events)
	}
}

func TestReplayScheduleDivergence(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Record a schedule, then replay it with its first decision rewritten to
	// a thread that does not exist: the replayer must report a typed
	// divergence error instead of silently running a different schedule.
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(3, "a"), opThread(3, "b")}}
	}
	rc := &sched.RecordingController{Inner: pickSecond{}}
	out := sched.NewScheduler(sched.Config{}, rc).Run(mk())
	if out.Err != nil {
		t.Fatalf("run: %v", out.Err)
	}
	if len(rc.Schedule) == 0 {
		t.Fatalf("no decisions recorded")
	}
	stale := append([]sched.ThreadID(nil), rc.Schedule...)
	stale[0] = sched.ThreadID(99)
	out2, err := sched.ReplaySchedule(sched.Config{}, mk(), stale)
	if err == nil {
		t.Fatalf("expected divergence error, got none")
	}
	var div *sched.ScheduleDivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("expected *ScheduleDivergenceError, got %T: %v", err, err)
	}
	if div.Decision != 0 {
		t.Fatalf("divergence at decision %d, want 0", div.Decision)
	}
	if div.Want != 99 {
		t.Fatalf("divergence wants thread %d, want 99", div.Want)
	}
	for _, id := range div.Enabled {
		if id == div.Want {
			t.Fatalf("divergence reports thread %d as both wanted and enabled", id)
		}
	}
	// The fallback execution still terminates cleanly.
	if out2 == nil || out2.Err != nil {
		t.Fatalf("fallback outcome: %+v", out2)
	}
	// A faithful replay of the same schedule reports no divergence.
	if _, err := sched.ReplaySchedule(sched.Config{}, mk(), rc.Schedule); err != nil {
		t.Fatalf("faithful replay reported divergence: %v", err)
	}
}

// pickSecond is a deliberately non-default controller so that the recorded
// schedule differs from the fallback behavior of ReplaySchedule.
type pickSecond struct{}

func (pickSecond) Pick(cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
	return enabled[len(enabled)-1]
}

func TestTraceRecording(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("op")
			th.Point(sched.PointAtomic)
			th.Record(sched.MemAtomicStore, 0, "x")
			th.Point(sched.PointRead)
			th.Record(sched.MemRead, 1, "y")
			th.OpEnd("op", "ok")
		},
	}}
	s := sched.NewScheduler(sched.Config{RecordTrace: true}, nil)
	out := s.Run(prog)
	if out.Err != nil || out.Stuck {
		t.Fatalf("outcome: %+v", out)
	}
	if len(out.Trace) != 2 {
		t.Fatalf("trace length = %d, want 2", len(out.Trace))
	}
	if out.Trace[0].Kind != sched.MemAtomicStore || out.Trace[0].Name != "x" {
		t.Fatalf("bad first trace event: %+v", out.Trace[0])
	}
	if out.Trace[1].Op != out.Trace[0].Op {
		t.Fatalf("trace events not attributed to the same operation")
	}
	// Without RecordTrace the trace stays empty.
	s2 := sched.NewScheduler(sched.Config{}, nil)
	out2 := s2.Run(sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("op")
			th.Record(sched.MemRead, 1, "y")
			th.OpEnd("op", "ok")
		},
	}})
	if len(out2.Trace) != 0 {
		t.Fatalf("trace recorded without RecordTrace")
	}
}
