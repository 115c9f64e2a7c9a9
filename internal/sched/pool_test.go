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

// An exploration keeps its worker goroutines, decision nodes and scheduler
// buffers from one execution to the next. These tests pin what that reuse must
// never change: a thread's identity, the goroutine count, the containment of a
// hung execution, and the goroutine-leak count.

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

// TestPoolThreadHandlesAreNeverReused: a *Thread is an identity (wait sets that
// outlive an execution are keyed by it), so the pool recycles the goroutine
// behind a thread and never the handle.
func TestPoolThreadHandlesAreNeverReused(t *testing.T) {
	sched.RequireNoLeaks(t)
	seen := map[*sched.Thread]int{}
	body := func(label string) func(*sched.Thread) {
		ops := opThread(2, label)
		return func(th *sched.Thread) {
			seen[th]++ // bodies run one at a time, ordered by the baton
			ops(th)
		}
	}
	prog := sched.Program{
		Setup:    func(th *sched.Thread) { seen[th]++ },
		Threads:  []func(*sched.Thread){body("a"), body("b"), body("c")},
		Teardown: func(th *sched.Thread) { seen[th]++ },
	}
	_, stats := exploreAll(t, sched.ExploreConfig{PreemptionBound: 2}, prog)
	if stats.Executions < 200 {
		t.Fatalf("only %d executions", stats.Executions)
	}
	if want := 5 * stats.Executions; len(seen) != want {
		t.Errorf("%d distinct handles over %d executions of 5 threads, want %d", len(seen), stats.Executions, want)
	}
	for th, n := range seen {
		if n != 1 {
			t.Fatalf("handle %p (thread %s) was handed to %d bodies", th, th.Name(), n)
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
				th.Point(sched.PointAtomic)
				inA.Store(false)
				th.OpEnd("a0", "ok")
			},
			func(th *sched.Thread) {
				enter()
				th.OpStart("b0")
				th.Point(sched.PointAtomic)
				if inA.Load() && trip() {
					<-release
				}
				th.OpEnd("b0", "ok")
			},
			opThread(1, "c"),
		},
	}
	cfg := sched.ExploreConfig{
		Config:            sched.Config{Watchdog: 20 * time.Millisecond, AbandonGrace: 5 * time.Millisecond},
		PreemptionBound:   2,
		ContinueOnFailure: true,
	}
	var outs []*sched.Outcome
	if _, err := sched.Explore(cfg, prog, func(o *sched.Outcome) bool {
		outs = append(outs, o)
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

// TestPoolDetectLeaksCountsSubjectGoroutines: workers are the scheduler's
// goroutines. The execution that starts them reports no leak, and a goroutine
// the subject starts behind the scheduler's back is still reported, once.
func TestPoolDetectLeaksCountsSubjectGoroutines(t *testing.T) {
	sched.RequireNoLeaks(t)
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
		Config:            sched.Config{DetectLeaks: true, AbandonGrace: 5 * time.Millisecond},
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

// TestPoolExploreRandomEndsItsWorkers: the sampled runs share a pool like an
// explorer's executions, and every return path of ExploreRandom ends it.
func TestPoolExploreRandomEndsItsWorkers(t *testing.T) {
	sched.RequireNoLeaks(t)
	base := runtime.NumGoroutine()
	cfg := sched.RandomConfig{Runs: 200, Seed: 7}
	prog := sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}

	n := 0
	if stats, err := sched.ExploreRandom(cfg, prog, func(*sched.Outcome, sched.Pos) bool {
		if g := runtime.NumGoroutine(); g > base+4 {
			t.Fatalf("%d goroutines during sampling, want at most %d", g, base+4)
		}
		n++
		return n < 30
	}); err != nil || stats.Executions != 30 {
		t.Fatalf("early stop: stats %+v, err %v", stats, err)
	}
	settlesTo(t, base)

	cfg.ContinueOnFailure = true
	failed := 0
	if stats, err := sched.ExploreRandom(cfg, overlapPanicProgram(), func(o *sched.Outcome, _ sched.Pos) bool {
		if o.FailureKind() == sched.FailPanic {
			failed++
		}
		return true
	}); err != nil || stats.Executions != cfg.Runs || failed == 0 {
		t.Fatalf("contained failures: stats %+v, %d failed, err %v", stats, failed, err)
	}
	settlesTo(t, base)

	cfg.ContinueOnFailure = false
	if _, err := sched.ExploreRandom(cfg, overlapPanicProgram(), func(*sched.Outcome, sched.Pos) bool { return true }); err == nil {
		t.Fatal("an uncontained failure did not abort the sampling run")
	}
	settlesTo(t, base)
}
