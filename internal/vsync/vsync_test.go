package vsync_test

import (
	"testing"

	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// run executes a single-schedule program under the default controller and
// fails the test on panic or stuckness (unless wantStuck).
func run(t *testing.T, wantStuck bool, prog sched.Program) *sched.Outcome {
	t.Helper()
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(prog)
	if out.Err != nil {
		t.Fatalf("execution error: %v", out.Err)
	}
	if out.Stuck != wantStuck {
		t.Fatalf("stuck = %v, want %v", out.Stuck, wantStuck)
	}
	return out
}

func TestCellLoadStore(t *testing.T) {
	var got int
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			c := vsync.NewCell(th, "c", 41)
			c.Store(th, c.Load(th)+1)
			got = c.Load(th)
		},
	}})
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestAtomicCASSemantics(t *testing.T) {
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			a := vsync.NewAtomic(th, "a", 10)
			if a.CompareAndSwap(th, 11, 12) {
				t.Errorf("CAS with wrong old value succeeded")
			}
			if !a.CompareAndSwap(th, 10, 12) {
				t.Errorf("CAS with right old value failed")
			}
			if a.Load(th) != 12 {
				t.Errorf("value = %d", a.Load(th))
			}
			if old := a.Swap(th, 7); old != 12 {
				t.Errorf("swap returned %d", old)
			}
		},
	}})
}

func TestAtomicIntAdd(t *testing.T) {
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			i := vsync.NewAtomicInt(th, "i", 5)
			if v := i.Add(th, 3); v != 8 {
				t.Errorf("Add returned %d", v)
			}
			if v := i.Add(th, -8); v != 0 {
				t.Errorf("Add returned %d", v)
			}
			if !i.CompareAndSwap(th, 0, 9) || i.Load(th) != 9 {
				t.Errorf("CAS/Load broken")
			}
		},
	}})
}

func TestMutexReentrancy(t *testing.T) {
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			m := vsync.NewMutex(th, "m")
			m.Lock(th)
			m.Lock(th) // reentrant
			if !m.Held(th) {
				t.Errorf("not held after double lock")
			}
			m.Unlock(th)
			if !m.Held(th) {
				t.Errorf("released after one unlock of two")
			}
			m.Unlock(th)
			if m.Held(th) {
				t.Errorf("still held after balanced unlocks")
			}
		},
	}})
}

func TestMutexContention(t *testing.T) {
	// B blocks while A holds the lock, and proceeds after A releases.
	var m *vsync.Mutex
	var order []string
	run(t, false, sched.Program{
		Setup: func(th *sched.Thread) { m = vsync.NewMutex(th, "m") },
		Threads: []func(*sched.Thread){
			func(th *sched.Thread) {
				m.Lock(th)
				th.Point() // give B a chance to contend
				order = append(order, "A")
				m.Unlock(th)
			},
			func(th *sched.Thread) {
				m.Lock(th)
				order = append(order, "B")
				m.Unlock(th)
			},
		},
	})
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestTryLock(t *testing.T) {
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			m := vsync.NewMutex(th, "m")
			if !m.TryLock(th) {
				t.Errorf("TryLock on free mutex failed")
			}
			if !m.TryLock(th) {
				t.Errorf("reentrant TryLock failed")
			}
			m.Unlock(th)
			m.Unlock(th)
		},
	}})
}

func TestTryLockContended(t *testing.T) {
	// Explore all schedules; in some, B's TryLock must fail while A holds
	// the lock, and in others succeed.
	mk := func(m **vsync.Mutex, results *[]bool) sched.Program {
		return sched.Program{
			Setup: func(th *sched.Thread) { *m = vsync.NewMutex(th, "m") },
			Threads: []func(*sched.Thread){
				func(th *sched.Thread) {
					(*m).Lock(th)
					th.Point()
					(*m).Unlock(th)
				},
				func(th *sched.Thread) {
					*results = append(*results, (*m).TryLock(th))
					if (*m).Held(th) {
						(*m).Unlock(th)
					}
				},
			},
		}
	}
	var m *vsync.Mutex
	var results []bool
	_, err := sched.Explore(sched.ExploreConfig{
		PreemptionBound: sched.Unbounded,
	}, mk(&m, &results), func(o *sched.Outcome) bool {
		if o.Err != nil {
			t.Fatalf("execution error: %v", o.Err)
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	sawFail, sawOK := false, false
	for _, r := range results {
		if r {
			sawOK = true
		} else {
			sawFail = true
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("TryLock outcomes not both observed: fail=%v ok=%v", sawFail, sawOK)
	}
}

func TestUnlockNotHeldPanics(t *testing.T) {
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			m := vsync.NewMutex(th, "m")
			m.Unlock(th)
		},
	}})
	if out.Err == nil {
		t.Fatalf("expected an execution error from unlocking a free mutex")
	}
}

func TestCondNoLostWakeupAcrossAllSchedules(t *testing.T) {
	// The condition-variable pattern must complete under every schedule:
	// the waiter registers before releasing the lock, so the broadcast in
	// the unlock window is not lost.
	mk := func() sched.Program {
		var (
			m    *vsync.Mutex
			c    *vsync.Cond
			flag *vsync.Cell[bool]
		)
		return sched.Program{
			Setup: func(th *sched.Thread) {
				m = vsync.NewMutex(th, "m")
				c = vsync.NewCond(m)
				flag = vsync.NewCell(th, "flag", false)
			},
			Threads: []func(*sched.Thread){
				func(th *sched.Thread) {
					th.OpStart("wait")
					m.Lock(th)
					for !flag.Load(th) {
						c.Wait(th)
					}
					m.Unlock(th)
					th.OpEnd("wait", "ok")
				},
				func(th *sched.Thread) {
					th.OpStart("set")
					m.Lock(th)
					flag.Store(th, true)
					c.Broadcast(th)
					m.Unlock(th)
					th.OpEnd("set", "ok")
				},
			},
		}
	}
	stuck := 0
	_, err := sched.Explore(sched.ExploreConfig{
		PreemptionBound: sched.Unbounded,
	}, mk(), func(o *sched.Outcome) bool {
		if o.Err != nil {
			t.Fatalf("execution error: %v", o.Err)
		}
		if o.Stuck {
			stuck++
		}
		return true
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if stuck != 0 {
		t.Fatalf("%d schedules lost the wakeup", stuck)
	}
}

func TestCondWaitWithoutLockPanics(t *testing.T) {
	s := sched.NewScheduler(sched.Config{}, nil)
	out := s.Run(sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			m := vsync.NewMutex(th, "m")
			c := vsync.NewCond(m)
			c.Wait(th)
		},
	}})
	if out.Err == nil {
		t.Fatalf("expected an execution error from waiting without the lock")
	}
}

func TestAtomicPointerCAS(t *testing.T) {
	type node struct{ v int }
	run(t, false, sched.Program{Threads: []func(*sched.Thread){
		func(th *sched.Thread) {
			a := vsync.NewAtomic[*node](th, "head", nil)
			n1 := &node{1}
			if !a.CompareAndSwap(th, nil, n1) {
				t.Errorf("CAS nil -> n1 failed")
			}
			n2 := &node{2}
			if a.CompareAndSwap(th, nil, n2) {
				t.Errorf("CAS with stale nil succeeded")
			}
			if a.Load(th) != n1 {
				t.Errorf("wrong head")
			}
		},
	}})
}

// TestMutexHeldAcrossExecutions: a mutex that outlives an execution and was
// left held by a thread of a stuck execution stays held for every later
// execution, also for the thread in the holder's spawn slot: its Lock blocks.
// Thread A takes the mutex only after B has finished, so no decision of the
// exploration depends on whether the Lock blocks.
func TestMutexHeldAcrossExecutions(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		var m *vsync.Mutex
		var gate, never *sched.WaitSet
		bDone := false
		prog := sched.Program{
			Setup: func(th *sched.Thread) {
				if m == nil {
					m = vsync.NewMutex(th, "m")
				}
				gate, never, bDone = new(sched.WaitSet), new(sched.WaitSet), false
			},
			Threads: []func(*sched.Thread){
				func(th *sched.Thread) {
					th.Point()
					for !bDone {
						gate.Wait(th)
					}
					th.OpStart("lock")
					m.Lock(th)
					th.OpEnd("lock", "ok")
					never.Wait(th) // stuck, holding m
				},
				func(th *sched.Thread) {
					th.Point()
					th.Point()
					bDone = true
					gate.Signal(th) // the thread's last step
				},
			},
		}
		execs := 0
		_, err := sched.Explore(sched.ExploreConfig{PreemptionBound: sched.Unbounded, Reduction: red}, prog, func(o *sched.Outcome) bool {
			if o.Err != nil {
				t.Fatalf("execution error: %v", o.Err)
			}
			want := 1 // the Lock blocks: its call is pending
			if execs == 0 {
				want = 2 // the first execution takes the free mutex
			}
			if !o.Stuck || len(o.Events) != want {
				t.Fatalf("%v: execution %d (schedule %v): stuck %v, events %v; want stuck with %d events",
					red, execs, o.Schedule, o.Stuck, o.Events, want)
			}
			execs++
			return true
		})
		if err != nil {
			t.Fatalf("%v: explore: %v", red, err)
		}
		if execs < 4 {
			t.Fatalf("%v: only %d executions", red, execs)
		}
		t.Logf("%v: %d executions", red, execs)
	}
}
