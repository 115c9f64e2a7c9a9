package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"lineup/internal/sched"
)

// scripted picks, call by call, what fn returns; fn sees the zero-based call
// index. Calls after the first run on a subject thread's goroutine.
type scripted struct {
	calls int
	fn    func(call int, cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID
}

func (c *scripted) Pick(cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
	c.calls++
	return c.fn(c.calls-1, cur, curEnabled, enabled)
}

func keepCurrent(cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
	if curEnabled {
		return cur
	}
	return enabled[0]
}

// mustPanic runs f on the test's goroutine and returns the value it panicked
// with, formatted. A panic on any other goroutine would crash the test binary
// instead; no panic at all fails the test.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic reached the caller's goroutine")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestControllerPanicIsNotSubjectPanic: scheduling decisions run on the
// subject threads' goroutines, inside the wrapper that recovers subject
// panics. A panic of the controller or of the scheduler's own consistency
// check is a framework fault: it must reach the goroutine that called Run or
// Explore with its original value and never become Outcome.Err, which
// ContinueOnFailure would contain and carry on from.
func TestControllerPanicIsNotSubjectPanic(t *testing.T) {
	sched.RequireNoLeaks(t)
	prog := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}

	t.Run("pick-panics", func(t *testing.T) {
		ctrl := &scripted{fn: func(call int, cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
			if call == 2 {
				panic("controller bug")
			}
			return keepCurrent(cur, curEnabled, enabled)
		}}
		if msg := mustPanic(t, func() { sched.NewScheduler(sched.Config{}, ctrl).Run(prog()) }); msg != "controller bug" {
			t.Fatalf("panic value = %q, want the controller's own", msg)
		}
	})

	t.Run("pick-disabled-thread", func(t *testing.T) {
		ctrl := &scripted{fn: func(call int, cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
			if call == 2 {
				return 99
			}
			return keepCurrent(cur, curEnabled, enabled)
		}}
		msg := mustPanic(t, func() { sched.NewScheduler(sched.Config{}, ctrl).Run(prog()) })
		if !strings.Contains(msg, "controller picked disabled thread 99") {
			t.Fatalf("panic value = %q", msg)
		}
	})

	t.Run("unit-of-another-program", func(t *testing.T) {
		// The fourth decision is taken on a thread's goroutine; no decision of
		// this program offers eight branches.
		u := sched.WorkUnit{Path: []int{0, 0, 0, 7}}
		cfg := sched.ExploreConfig{PreemptionBound: 2, ContinueOnFailure: true}
		msg := mustPanic(t, func() {
			_, err := sched.ExploreUnit(cfg, prog(), u, func(o *sched.Outcome, _ sched.Pos) bool {
				t.Errorf("a mismatched unit produced an outcome (Err: %v)", o.Err)
				return true
			})
			t.Errorf("a mismatched unit returned (err: %v)", err)
		})
		if !strings.Contains(msg, "work unit does not match program") {
			t.Fatalf("panic value = %q", msg)
		}
	})

	t.Run("subject-panic-stays-contained", func(t *testing.T) {
		// Thread A takes the decision at its point itself (it continues), then
		// panics: still a subject failure, with the subject's stack.
		ctrl := &scripted{fn: func(_ int, cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
			return keepCurrent(cur, curEnabled, enabled)
		}}
		out := sched.NewScheduler(sched.Config{}, ctrl).Run(sched.Program{Threads: []func(*sched.Thread){
			func(t *sched.Thread) {
				t.OpStart("a0")
				t.Point(sched.PointAtomic)
				panicInSubject()
			},
			opThread(1, "b"),
		}})
		if ctrl.calls < 2 {
			t.Fatalf("only %d decisions before the panic", ctrl.calls)
		}
		if out.FailureKind() != sched.FailPanic || out.PanicValue != "subject bug" {
			t.Fatalf("FailureKind = %v, PanicValue = %v", out.FailureKind(), out.PanicValue)
		}
		if !strings.Contains(string(out.PanicStack), "panicInSubject") {
			t.Fatalf("panic stack lost the subject's frames:\n%s", out.PanicStack)
		}
	})
}

//go:noinline
func panicInSubject() { panic("subject bug") }

// pointLoop is a thread of one operation with n points in it.
func pointLoop(n int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		t.OpStart("loop")
		for i := 0; i < n; i++ {
			t.Point(sched.PointAtomic)
		}
		t.OpEnd("loop", "ok")
	}
}

// alternate switches to the other thread at every decision.
type alternate struct{}

func (alternate) Pick(cur sched.ThreadID, curEnabled bool, enabled []sched.ThreadID) sched.ThreadID {
	for _, id := range enabled {
		if id != cur {
			return id
		}
	}
	return cur
}

// BenchmarkPoint measures one instrumented point by what its decision does:
// continue (two threads enabled, the controller keeps the running one),
// forced (one thread enabled, no Pick) and switch (the controller alternates
// between two threads, one goroutine hand-off per point). The first two must
// not allocate.
func BenchmarkPoint(b *testing.B) {
	for _, bc := range []struct {
		name string
		ctrl sched.Controller
		prog func(n int) sched.Program
	}{
		{"continue", nil, func(n int) sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){pointLoop(n), opThread(1, "b")}}
		}},
		{"forced", nil, func(n int) sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){pointLoop(n)}}
		}},
		{"switch", alternate{}, func(n int) sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){pointLoop(n / 2), pointLoop(n - n/2)}}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := sched.Config{MaxOpSteps: b.N + 2, Prealloc: sched.CapHint{Schedule: b.N + 4}}
			out := sched.NewScheduler(cfg, bc.ctrl).Run(bc.prog(b.N))
			if out.Stuck || out.Err != nil {
				b.Fatalf("stuck %v, err %v", out.Stuck, out.Err)
			}
		})
	}
}

// TestPointContinueAllocs: a point whose decision keeps the running thread —
// chosen by the controller or forced — allocates nothing.
func TestPointContinueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const points = 1000
	measure := func(others ...func(*sched.Thread)) float64 {
		var perPoint float64
		threads := append([]func(*sched.Thread){func(th *sched.Thread) {
			th.OpStart("loop")
			perPoint = testing.AllocsPerRun(points, func() { th.Point(sched.PointAtomic) })
			th.OpEnd("loop", "ok")
		}}, others...)
		cfg := sched.Config{Prealloc: sched.CapHint{Schedule: points + 8}}
		if out := sched.NewScheduler(cfg, nil).Run(sched.Program{Threads: threads}); out.Stuck || out.Err != nil {
			t.Fatalf("stuck %v, err %v", out.Stuck, out.Err)
		}
		return perPoint
	}
	if n := measure(opThread(1, "b")); n != 0 {
		t.Errorf("continue: %.2f allocs per point, want 0", n)
	}
	if n := measure(); n != 0 {
		t.Errorf("forced: %.2f allocs per point, want 0", n)
	}
}
