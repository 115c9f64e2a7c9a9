package sched_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lineup/internal/sched"
)

// An exploration keeps its worker goroutines, thread handles, decision nodes
// and scheduler buffers from one execution to the next. These tests pin what
// that reuse must never change: the goroutine count, the containment of a hung
// execution, and the goroutine-leak count. What a recycled handle must never
// change (a stale wait-set entry or mutex holder is not a later thread) is
// pinned by TestWaitSetStaleWaiterAbsorbsSignals and, in internal/vsync,
// TestMutexHeldAcrossExecutions.

// settlesTo waits for the process goroutine count to come back down to want:
// retired workers exit on their own time.
func settlesTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdsStill waits until the process goroutine count has not changed for a
// while. A goroutine an earlier test left behind on its way out (a retired
// worker, an abandoned thread unwinding) could otherwise exit in the middle of
// an execution whose leak count is being read, and cancel out a leak.
func holdsStill(t *testing.T) {
	t.Helper()
	const still = 50 * time.Millisecond
	deadline := time.Now().Add(2 * time.Second)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < still {
		if time.Now().After(deadline) {
			t.Fatalf("the goroutine count did not hold still for %v (now %d)", still, n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
}

// TestPoolGoroutineCount: an exploration holds one worker per thread (plus the
// setup and teardown pseudo-threads), however many executions it runs, and
// every way out of it ends them.
func TestPoolGoroutineCount(t *testing.T) {
	sched.RequireNoLeaks(t)
	threads := func() []func(*sched.Thread) {
		return []func(*sched.Thread){opThread(3, "a"), opThread(3, "b"), opThread(3, "c")}
	}
	// Each case explores with visit as its visitor; the goroutine count is
	// sampled at every visit and must be back at its start when the case is over.
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, visit func(*sched.Outcome) bool)
	}{
		{"10000-executions", func(t *testing.T, visit func(*sched.Outcome) bool) {
			cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, MaxExecutions: 10000}
			stats, err := sched.Explore(cfg, sched.Program{Threads: threads()}, visit)
			if !errors.Is(err, sched.ErrBudget) || stats.Executions != 10000 {
				t.Fatalf("stats %+v, err %v", stats, err)
			}
		}},
		{"visit-stops", func(t *testing.T, visit func(*sched.Outcome) bool) {
			n := 0
			if _, err := sched.Explore(sched.ExploreConfig{PreemptionBound: 2}, sched.Program{Threads: threads()}, func(o *sched.Outcome) bool {
				n++
				return visit(o) && n < 50
			}); err != nil || n != 50 {
				t.Fatalf("%d executions, err %v", n, err)
			}
		}},
		{"subject-panics", func(t *testing.T, visit func(*sched.Outcome) bool) {
			_, err := sched.Explore(sched.ExploreConfig{PreemptionBound: sched.Unbounded}, overlapPanicProgram(), visit)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want the subject's panic", err)
			}
		}},
		{"controller-panics", func(t *testing.T, visit func(*sched.Outcome) bool) {
			// From its 40th execution on, thread A runs a different program, so
			// the explorer's replay check panics inside Pick, on a worker's
			// goroutine, and Run re-panics on this one.
			execs := 0
			prog := sched.Program{Setup: func(*sched.Thread) { execs++ }, Threads: threads()}
			prog.Threads[0] = func(th *sched.Thread) {
				if execs < 40 {
					opThread(3, "a")(th)
				}
			}
			msg := mustPanic(t, func() {
				_, err := sched.Explore(sched.ExploreConfig{PreemptionBound: 2}, prog, visit)
				t.Errorf("the exploration returned (err: %v)", err)
			})
			if !strings.Contains(msg, "nondeterministic replay") {
				t.Fatalf("panic value = %q", msg)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t, func(*sched.Outcome) bool {
				if n := runtime.NumGoroutine(); n > base+3+2 {
					t.Fatalf("%d goroutines during the exploration, want at most %d", n, base+3+2)
				}
				return true
			})
			settlesTo(t, base)
		})
	}
}

// goid is the running goroutine's number, read off its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestPoolHungExecutionPoisonsNothing: one execution of the exploration blocks
// on a raw channel. It must be the only failure, its goroutine must never run a
// later thread, and every later outcome must be what a one-off replay of its
// schedule — fresh goroutines, fresh buffers — produces.
func TestPoolHungExecutionPoisonsNothing(t *testing.T) {
	sched.RequireNoLeaks(t)
	release := make(chan struct{})
	defer close(release) // lets the abandoned thread reach its next point and unwind
	// mu orders the abandoned goroutine's accesses with the others': it holds no
	// baton any more when it makes them.
	var mu sync.Mutex
	var inA atomic.Bool // read by thread B just before it escapes the scheduler
	var tripped bool
	var hungOn string
	ranOn := map[string]int{}
	enter := func() {
		mu.Lock()
		ranOn[goid()]++
		mu.Unlock()
	}
	trip := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if tripped {
			return false
		}
		tripped, hungOn = true, goid()
		ranOn[hungOn] = 0
		return true
	}
	prog := sched.Program{
		Setup: func(*sched.Thread) { inA.Store(false) },
		Threads: []func(*sched.Thread){
			func(th *sched.Thread) {
				enter()
				th.OpStart("a0")
				inA.Store(true)
				th.Point()
				inA.Store(false)
				th.OpEnd("a0", "ok")
			},
			func(th *sched.Thread) {
				enter()
				th.OpStart("b0")
				th.Point()
				if inA.Load() && trip() {
					<-release
				}
				th.OpEnd("b0", "ok")
			},
			opThread(1, "c"),
		},
	}
	cfg := sched.ExploreConfig{
		Config:            sched.WithAbandonGrace(sched.Config{Watchdog: 20 * time.Millisecond}, 5*time.Millisecond),
		PreemptionBound:   2,
		ContinueOnFailure: true,
	}
	var outs []*sched.Outcome
	if _, err := sched.Explore(cfg, prog, func(o *sched.Outcome) bool {
		outs = append(outs, o.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	hungAt := -1
	for i, o := range outs {
		if o.FailureKind() == sched.FailNone {
			continue
		}
		if !o.Hung || hungAt >= 0 {
			t.Fatalf("execution %d: unexpected failure %v (first hang at %d)", i, o.FailureError(), hungAt)
		}
		hungAt = i
	}
	if hungAt < 1 || hungAt > len(outs)-20 {
		t.Fatalf("hang at execution %d of %d: the fixture must hang mid-exploration", hungAt, len(outs))
	}
	mu.Lock()
	n := ranOn[hungOn]
	mu.Unlock()
	if n != 0 {
		t.Errorf("the abandoned goroutine %s ran %d thread bodies after it hung", hungOn, n)
	}
	for i, o := range outs[hungAt+1:] {
		r, err := sched.ReplaySchedule(sched.Config{}, prog, o.Schedule)
		if err != nil {
			t.Fatalf("execution %d: replay: %v", hungAt+1+i, err)
		}
		if !reflect.DeepEqual(r.Events, o.Events) || !reflect.DeepEqual(r.Schedule, o.Schedule) || r.Stuck != o.Stuck {
			t.Fatalf("execution %d after the hang differs from its one-off replay:\nexplored %v stuck=%v\nreplayed %v stuck=%v",
				i, o.Events, o.Stuck, r.Events, r.Stuck)
		}
	}
}

// TestPoolHungSchedulerIsDropped: a thread abandoned by the watchdog keeps
// its scheduler and may still record into it when the subject lets it go, so
// the explorer runs the executions after a hang on a fresh scheduler. Here the
// abandoned thread records stray accesses in the middle of the next execution,
// and that execution's trace must still be what a one-off replay records.
func TestPoolHungSchedulerIsDropped(t *testing.T) {
	sched.RequireNoLeaks(t)
	const hangAt = 3
	release, during, recorded := make(chan struct{}), make(chan struct{}), make(chan struct{})
	mk := func(hang bool) sched.Program {
		var execs atomic.Int32 // the abandoned thread read it last
		return sched.Program{
			Setup: func(*sched.Thread) {
				if hang && execs.Add(1) == hangAt+1 {
					close(during)
					<-recorded
				}
			},
			Threads: []func(*sched.Thread){opThread(2, "a"), func(th *sched.Thread) {
				th.OpStart("b0")
				if hang && execs.Load() == hangAt {
					<-release
					<-during
					for i := 0; i < 10; i++ {
						th.Record(sched.MemWrite, 1, "stray")
					}
					close(recorded)
				}
				th.Record(sched.MemRead, 0, "x")
				th.OpEnd("b0", "ok")
			}},
		}
	}
	cfg := sched.ExploreConfig{
		Config:            sched.WithAbandonGrace(sched.Config{RecordTrace: true, Watchdog: 100 * time.Millisecond}, 5*time.Millisecond),
		PreemptionBound:   2,
		ContinueOnFailure: true,
	}
	var outs []*sched.Outcome
	if _, err := sched.Explore(cfg, mk(true), func(o *sched.Outcome) bool {
		if o.Hung {
			close(release)
		}
		outs = append(outs, o.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(outs) < hangAt+5 || !outs[hangAt-1].Hung {
		t.Fatalf("%d executions, want execution %d of more than %d to hang", len(outs), hangAt, hangAt+4)
	}
	for i, o := range outs[hangAt:] {
		r, err := sched.ReplaySchedule(cfg.Config, mk(false), o.Schedule)
		if err != nil {
			t.Fatalf("execution %d: replay: %v", hangAt+1+i, err)
		}
		if o.FailureKind() != sched.FailNone || !reflect.DeepEqual(r.Trace, o.Trace) || !reflect.DeepEqual(r.Events, o.Events) {
			t.Fatalf("execution %d after the hang differs from its replay (%v):\nexplored %v\nreplayed %v",
				hangAt+1+i, o.FailureError(), o.Trace, r.Trace)
		}
	}
}

// TestPoolOutcomeValidDuringVisit: an explorer reuses its outcome and the
// outcome's buffers from one execution to the next, so what a visitor clones
// during the visit must be that execution whole — what a one-off replay of its
// schedule, on a fresh scheduler, produces — with one worker and with two.
func TestPoolOutcomeValidDuringVisit(t *testing.T) {
	sched.RequireNoLeaks(t)
	defer sched.SetRecruitAfter(1)()
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 0, 1), mixedThread("c", 1, 2),
		}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionSleep}
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var clones []*sched.Outcome
		stats, err := sched.ExploreParallel(cfg, workers, mk, func(o *sched.Outcome, _ sched.Pos) bool {
			mu.Lock()
			clones = append(clones, o.Clone())
			mu.Unlock()
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(clones) != stats.Executions || len(clones) < 20 {
			t.Fatalf("workers=%d: %d outcomes visited, %d executions", workers, len(clones), stats.Executions)
		}
		for i, o := range clones {
			r, err := sched.ReplaySchedule(sched.Config{}, mk(), o.Schedule)
			if err != nil {
				t.Fatalf("workers=%d, outcome %d: replay: %v", workers, i, err)
			}
			if !reflect.DeepEqual(r.Events, o.Events) || !reflect.DeepEqual(r.Schedule, o.Schedule) || r.Stuck != o.Stuck {
				t.Fatalf("workers=%d, outcome %d differs from its replay:\nkept     %v %v stuck=%v\nreplayed %v %v stuck=%v",
					workers, i, o.Schedule, o.Events, o.Stuck, r.Schedule, r.Events, r.Stuck)
			}
		}
	}
}

// TestPoolDetectLeaksCountsSubjectGoroutines: workers are the scheduler's
// goroutines. The execution that starts them reports no leak, and a goroutine
// the subject starts behind the scheduler's back is still reported, once.
func TestPoolDetectLeaksCountsSubjectGoroutines(t *testing.T) {
	sched.RequireNoLeaks(t)
	holdsStill(t)
	stop := make(chan struct{})
	defer close(stop)
	execs := 0
	prog := sched.Program{
		Setup: func(*sched.Thread) { execs++ },
		Threads: []func(*sched.Thread){opThread(2, "a"), func(th *sched.Thread) {
			th.OpStart("b0")
			if execs == 3 {
				go func() { <-stop }() // escapes the scheduler
			}
			th.OpEnd("b0", "ok")
		}},
	}
	cfg := sched.ExploreConfig{
		Config:            sched.WithAbandonGrace(sched.Config{DetectLeaks: true}, 5*time.Millisecond),
		PreemptionBound:   2,
		ContinueOnFailure: true,
	}
	var leaks []int
	if _, err := sched.Explore(cfg, prog, func(o *sched.Outcome) bool {
		leaks = append(leaks, o.LeakedGoroutines)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(leaks))
	want[2] = 1
	if !reflect.DeepEqual(leaks, want) {
		t.Fatalf("LeakedGoroutines per execution = %v, want 1 on the third and 0 elsewhere", leaks)
	}
}
