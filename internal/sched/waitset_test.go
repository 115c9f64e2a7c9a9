package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"lineup/internal/sched"
)

// TestWaitSetSemantics pins what a wait set promises, whatever it is built
// from. Every row runs one execution under the default controller (keep the
// running thread while it is enabled, otherwise run the lowest enabled one),
// so the order in which threads register, park and wake is fixed; gate and
// hold are helper wait sets that hand control from one thread to another.
// A, B and C are threads 0, 1 and 2.
func TestWaitSetSemantics(t *testing.T) {
	type sets struct{ ws, gate, hold *sched.WaitSet }
	for _, tc := range []struct {
		name    string
		threads func(s sets, note func(string)) []func(*sched.Thread)
		want    string // the notes, space-separated
		stuck   bool
	}{
		{"register-is-idempotent", func(s sets, note func(string)) []func(*sched.Thread) {
			return []func(*sched.Thread){func(th *sched.Thread) {
				s.ws.Register(th)
				s.ws.Register(th)
				note(fmt.Sprint(s.ws.Waiters()))
				s.ws.Signal(th)
				s.ws.Wait(th) // consumes the one registration's signal
				note(fmt.Sprint(s.ws.Waiters()))
			}}
		}, "[0] []", false},
		{"wait-consumes-a-pending-signal", func(s sets, note func(string)) []func(*sched.Thread) {
			return []func(*sched.Thread){func(th *sched.Thread) {
				s.ws.Register(th)
				s.ws.Signal(th)
				s.ws.Wait(th) // returns at once
				note("passed")
				s.ws.Wait(th) // the signal is gone: parks for good
				note("passed again")
			}}
		}, "passed", true},
		{"signal-wakes-the-earliest-registered", func(s sets, note func(string)) []func(*sched.Thread) {
			// B registers before A, which has the lower ID.
			return []func(*sched.Thread){
				func(th *sched.Thread) {
					s.gate.Wait(th)
					s.ws.Register(th)
					s.hold.Signal(th)
					s.ws.Wait(th)
					note("A woke")
				},
				func(th *sched.Thread) {
					s.ws.Wait(th)
					note("B woke")
				},
				func(th *sched.Thread) {
					s.gate.Signal(th)
					s.hold.Wait(th) // A registers meanwhile
					note(fmt.Sprint(s.ws.Waiters()))
					s.ws.Signal(th)
				},
			}
		}, "[0 1] B woke", true},
		{"signal-skips-a-signaled-waiter", func(s sets, note func(string)) []func(*sched.Thread) {
			wait := func(name string) func(*sched.Thread) {
				return func(th *sched.Thread) {
					s.ws.Wait(th)
					note(name + " woke")
				}
			}
			return []func(*sched.Thread){wait("A"), wait("B"), func(th *sched.Thread) {
				s.ws.Signal(th)
				s.ws.Signal(th) // A holds a signal it has not consumed yet: B's turn
				note(fmt.Sprint(s.ws.Waiters()))
			}}
		}, "[0 1] A woke B woke", false},
		{"broadcast-leaves-signals-pending", func(s sets, note func(string)) []func(*sched.Thread) {
			return []func(*sched.Thread){
				func(th *sched.Thread) {
					s.ws.Register(th)
					s.gate.Wait(th)
					s.ws.Wait(th) // the broadcast's signal is pending
					note("A passed")
				},
				func(th *sched.Thread) {
					s.ws.Wait(th)
					note("B woke")
				},
				func(th *sched.Thread) {
					s.gate.Signal(th) // A is registered on ws and runnable, not parked
					s.ws.Broadcast(th)
				},
			}
		}, "A passed B woke", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched.RequireNoLeaks(t)
			var ws, gate, hold sched.WaitSet
			var notes []string
			note := func(s string) { notes = append(notes, s) }
			out := sched.NewScheduler(sched.Config{}, nil).Run(sched.Program{
				Threads: tc.threads(sets{&ws, &gate, &hold}, note),
			})
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			if got := strings.Join(notes, " "); got != tc.want || out.Stuck != tc.stuck {
				t.Fatalf("notes %q, stuck %v; want %q, stuck %v", got, out.Stuck, tc.want, tc.stuck)
			}
		})
	}
}

// TestWaitSetStaleWaiterAbsorbsSignals: a wait set that outlives an execution
// keeps the registration of a thread that was still waiting when the
// execution ended stuck. A later execution's thread in the same spawn slot
// is not that waiter: it registers anew, and a Signal goes to the stale entry
// first, which absorbs it and wakes nobody. The exploration's per-schedule
// outcomes, in exploration order, are pinned: an execution in which the new
// waiter were taken for the stale one would complete where it must stay stuck
// (or return from Wait without blocking).
func TestWaitSetStaleWaiterAbsorbsSignals(t *testing.T) {
	sched.RequireNoLeaks(t)
	var ws sched.WaitSet
	prog := sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			th.OpStart("wait")
			th.Point()
			ws.Wait(th)
			th.OpEnd("wait", "ok")
		},
		func(th *sched.Thread) {
			th.Point()
			th.Point()
			ws.Signal(th) // the thread's last step: no decision follows it
		},
	}}
	// Schedule, verdict, events recorded and entries registered after the
	// execution. Each stuck execution leaves one more entry; each later
	// Signal is absorbed by the oldest unsignaled one.
	stale := []string{
		"[0 0 1 1 1] stuck 1 1", "[0 0 1 1 0] stuck 1 2", "[0 0 1 0] stuck 1 3", "[0 1 1 1] stuck 1 4",
		"[0 1 1 0 0] stuck 1 5", "[0 1 1 0 1] stuck 1 6", "[0 1 0 0] stuck 1 7", "[0 1 0 1 1] stuck 1 8",
		"[0 1 0 1 0] stuck 1 9", "[1 1 1] stuck 1 10", "[1 1 0 0 0] stuck 1 11", "[1 1 0 0 1] stuck 1 12",
		"[1 1 0 1] stuck 1 13", "[1 0 0 0] stuck 1 14", "[1 0 0 1 1] stuck 1 15", "[1 0 0 1 0] stuck 1 16",
		"[1 0 1 1] stuck 1 17", "[1 0 1 0 0] stuck 1 18", "[1 0 1 0 1] stuck 1 19",
	}
	for _, tc := range []struct {
		red  sched.Reduction
		want []string
	}{
		{sched.ReductionNone, append([]string{"[0 0 0] done 2 0"}, stale...)},
		// The wait set has no footprint location, so its windows conflict
		// with everything; sleep sets prune the schedules that only reorder
		// B's points.
		{sched.ReductionSleep, []string{"[0 0 0] done 2 0", "[0 0 1 1 1] stuck 1 1", "[0 0 1 1 0] stuck 1 2", "[0 0 1 0] stuck 1 3", "[0 1 1 1] stuck 1 4", "[1 1 1] stuck 1 5"}},
	} {
		ws = sched.WaitSet{}
		var got []string
		_, err := sched.Explore(sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: tc.red}, prog, func(o *sched.Outcome) bool {
			if o.Err != nil {
				t.Fatalf("execution error: %v", o.Err)
			}
			verdict := "done"
			if o.Stuck {
				verdict = "stuck"
			}
			got = append(got, fmt.Sprintf("%v %s %d %d", o.Schedule, verdict, len(o.Events), len(ws.Waiters())))
			return true
		})
		if err != nil {
			t.Fatalf("%v: explore: %v", tc.red, err)
		}
		if g, w := strings.Join(got, "\n"), strings.Join(tc.want, "\n"); g != w {
			t.Errorf("%v: outcomes\n%s\nwant\n%s", tc.red, g, w)
		}
	}
}
