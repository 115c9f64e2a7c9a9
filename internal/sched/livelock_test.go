package sched_test

import (
	"strings"
	"testing"

	"lineup/internal/sched"
)

// TestLivelockDetectedAsStuck: two threads spinning on each other's state
// (a livelock) exceed the per-operation step budget and the execution is
// reported stuck — the "livelock, or a diverging loop" case of the paper's
// Section 2.3 definition of stuck histories.
func TestLivelockDetectedAsStuck(t *testing.T) {
	flagA, flagB := false, false
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("spinA")
			flagA = true
			for flagB {
				th.Point()
			}
			// Spin while the other thread's flag is up; with both flags up
			// neither loop exits.
			for flagA && flagB {
				th.Point()
			}
			th.OpEnd("spinA", "ok")
		},
		func(th *sched.Thread) {
			th.OpStart("spinB")
			flagB = true
			for flagA {
				th.Point()
			}
			th.OpEnd("spinB", "ok")
		},
	}}
	// Force the interleaving where both flags go up before either loop
	// starts: run A to its first point, then B.
	stuckSeen := false
	_, err := sched.Explore(sched.ExploreConfig{
		Config:          sched.WithMaxOpSteps(sched.Config{}, 200),
		PreemptionBound: 2,
	}, prog, func(o *sched.Outcome) bool {
		if o.Err != nil {
			t.Fatalf("execution error: %v", o.Err)
		}
		if o.Stuck {
			stuckSeen = true
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !stuckSeen {
		t.Fatalf("livelock never reported as stuck")
	}
}

// TestStepBudgetBoundary pins the exact semantics of the step bound: an
// operation with n intermediate points takes n+2 instrumented steps (the
// OpStart and OpEnd points included), completes when the budget equals its
// step count, and diverges when the budget is one below it.
func TestStepBudgetBoundary(t *testing.T) {
	sched.RequireNoLeaks(t)
	const mid = 5 // intermediate points; total steps = mid + 2
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("op")
			for i := 0; i < mid; i++ {
				th.Point()
			}
			th.OpEnd("op", "ok")
		},
	}}

	t.Run("exactly-reached", func(t *testing.T) {
		s := sched.NewScheduler(sched.WithMaxOpSteps(sched.Config{}, mid+2), nil)
		out := s.Run(prog)
		if out.Stuck || out.Err != nil {
			t.Fatalf("budget exactly reached must complete, got %+v", out)
		}
		if len(out.Events) != 2 {
			t.Fatalf("expected call+return, got %d events", len(out.Events))
		}
	})

	t.Run("exceeded-by-one", func(t *testing.T) {
		s := sched.NewScheduler(sched.WithMaxOpSteps(sched.Config{}, mid+1), nil)
		out := s.Run(prog)
		if !out.Stuck {
			t.Fatalf("budget exceeded by one must be stuck (diverged), got %+v", out)
		}
		if out.Err != nil || out.Hung {
			t.Fatalf("divergence misclassified: %+v", out)
		}
	})
}

// TestImplementationPanicSurfacesAsError: a panic inside the code under
// test becomes Outcome.Err with the panic message and stack, not a crash of
// the checker.
func TestImplementationPanicSurfacesAsError(t *testing.T) {
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("boom")
			panic("implementation bug")
		},
	}}
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(prog)
	if out.Err == nil {
		t.Fatalf("panic not surfaced")
	}
	if !strings.Contains(out.Err.Error(), "implementation bug") {
		t.Fatalf("panic message lost: %v", out.Err)
	}
}

// TestYieldPoint: the explicit spin-yield point is a scheduling decision.
func TestYieldPoint(t *testing.T) {
	order := ""
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("a")
			th.Yield()
			order += "a"
			th.OpEnd("a", "ok")
		},
		func(th *sched.Thread) {
			th.OpStart("b")
			order += "b"
			th.OpEnd("b", "ok")
		},
	}}
	n := 0
	_, err := sched.Explore(sched.ExploreConfig{PreemptionBound: sched.Unbounded}, prog,
		func(o *sched.Outcome) bool {
			if o.Err != nil {
				t.Fatalf("execution error: %v", o.Err)
			}
			n++
			return true
		})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if n < 2 {
		t.Fatalf("yield produced no extra schedules (%d)", n)
	}
}
