package core

import (
	"strings"
	"testing"
	"time"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// panicBackend is a witness backend that dies on every query, modeling a
// buggy executable specification. The phase-2 accumulator must convert the
// panic into a per-entry error and still close the entry's done channel; a
// waiter blocked on an entry whose decider died would otherwise hang its
// worker — and ExploreParallel's final join — forever.
type panicBackend struct{}

func (panicBackend) witnessFull(*history.History) (bool, error) {
	panic("witness backend exploded")
}
func (panicBackend) witnessClassic(*history.History) (bool, error) {
	panic("witness backend exploded")
}
func (panicBackend) witnessStuck(*history.History, history.Op) (bool, error) {
	panic("witness backend exploded")
}

// noopOp is an instrumented invocation with no shared state: every schedule
// of a noop test collapses to few distinct histories, so many parallel
// visitors pile onto the same cache entries — exactly the contention the
// done-channel protocol must survive.
func noopOp(name string) Op {
	return Op{Method: name, Run: func(t *sched.Thread, o any) string { return "ok" }}
}

// TestParallelWitnessPanicDoesNotHangWaiters is the regression test for the
// histEntry.done liveness bug: a deciding worker that panicked between
// creating the channel and closing it left every concurrent visitor of the
// same history key blocked forever. Run under -race, the test drives the
// phase-2 accumulator with a panicking backend — from the lone DFS and from
// four parallel workers — and requires a prompt, structured error instead of
// a hang or a crash.
func TestParallelWitnessPanicDoesNotHangWaiters(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := &Subject{
		Name: "noopbox",
		New:  func(t *sched.Thread) any { return struct{}{} },
	}
	m := &Test{Rows: [][]Op{
		{noopOp("A"), noopOp("B")},
		{noopOp("C"), noopOp("D")},
	}}
	newProg := func() sched.Program {
		var holder any
		return program(sub, m, &holder)
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2, MaxExecutions: 200000}
	for _, workers := range []int{1, 4} {
		acc := newPhase2Acc(&phase2Decider{backend: panicBackend{}, mode: modeGeneralized, m: m}, false, 0)
		errCh := make(chan error, 1)
		go func() {
			var exploreErr error
			if workers > 1 {
				_, exploreErr = sched.ExploreParallel(cfg, workers, newProg, acc.visit)
			} else {
				_, exploreErr = sched.ExploreUnit(cfg, newProg(), sched.WorkUnit{}, acc.visit)
			}
			if exploreErr != nil && exploreErr != sched.ErrBudget {
				errCh <- exploreErr
				return
			}
			_, _, verr := acc.resolve()
			errCh <- verr
		}()
		select {
		case err := <-errCh:
			if err == nil || !strings.Contains(err.Error(), "witness decision panicked") {
				t.Fatalf("workers=%d: want a witness-panic error, got %v", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: phase 2 hung after a panicking witness decision", workers)
		}
	}
}

// TestCheckWithPanickingMonitorModelReturnsError covers the same liveness
// property end to end: a monitor model that panics during replay must surface
// as a check error on every worker count, never as a hang or a process crash
// (the monitor runs multi-part searches on raw goroutines, where an
// unrecovered panic would kill the process before any result is delivered).
func TestCheckWithPanickingMonitorModelReturnsError(t *testing.T) {
	model := &monitor.Model{
		Name: "explosive",
		Init: func() string { return "" },
		Step: func(state, op string) (string, string, error) {
			panic("model exploded")
		},
	}
	sub := &Subject{
		Name: "noopbox",
		New:  func(t *sched.Thread) any { return struct{}{} },
	}
	m := &Test{Rows: [][]Op{
		{noopOp("A")},
		{noopOp("B")},
	}}
	for _, workers := range []int{1, 4} {
		done := make(chan error, 1)
		go func() {
			_, err := CheckWithMonitor(sub, model, m, RefOptions{Options: Options{
				PreemptionBound: 2,
				Workers:         workers,
			}})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("workers=%d: want a model-panic error, got %v", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: check hung on a panicking model", workers)
		}
	}
}
