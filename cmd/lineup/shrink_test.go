package main

import (
	"strings"
	"testing"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// flakyCounter is the lost-update counter of Section 2.2.1 with a fault
// injected the way package faultinject injects its own — a pure function of
// the schedule, absent from every serial execution: Get panics when it starts
// inside another thread's Inc. (faultinject.Harness faults every overlap, which
// leaves no overlapping history to be a violation; this subject needs both.)
func flakyCounter() *core.Subject {
	type flaky struct {
		c     *collections.Counter1
		inInc int
	}
	inc := core.Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		f := obj.(*flaky)
		f.inInc++
		f.c.Inc(t)
		f.inInc--
		return collections.OK
	}}
	get := core.Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		f := obj.(*flaky)
		if f.inInc > 0 {
			panic("fault injected: Get inside another thread's Inc")
		}
		return collections.Int(f.c.Get(t))
	}}
	return &core.Subject{
		Name: "FlakyCounter",
		New:  func(t *sched.Thread) any { return &flaky{c: collections.NewCounter1(t)} },
		Ops:  []core.Op{inc, get},
	}
}

// TestCmdCheckShrinkKeepsSweepOptions: `lineup check` shrinks the first
// failing test under the options the sweep ran with. It used to shrink with
// the preemption bound alone, so a sweep that got past a panicking subject
// thanks to -max-failures aborted in the shrink at the first panic, and a
// sweep judged by a -model was shrunk by the spec backend — which on
// a test only the model rejects found nothing to shrink and crashed printing
// the violation it did not have.
func TestCmdCheckShrinkKeepsSweepOptions(t *testing.T) {
	sched.RequireNoLeaks(t)
	registered := findSubject
	defer func() { findSubject = registered }()
	findSubject = func(name string) (*core.Subject, int, bool) {
		if name == "FlakyCounter" {
			return flakyCounter(), 2, true
		}
		return registered(name)
	}
	out := captureStdout(t, func() error {
		return cmdCheck([]string{"-class", "FlakyCounter", "-samples", "4", "-rows", "2", "-cols", "2",
			"-workers", "1", "-max-failures", "1000"})
	})
	for _, want := range []string{"contained runtime failures:", "panic=", "first failing test:", "shrunk to 2x", "Line-Up encountered a violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("contained sweep + shrink: output lacks %q:\n%s", want, out)
		}
	}
	// A bag is no queue (its ToArray alone renders differently): only the
	// model rejects these tests, so the shrink has to ask the model too.
	out = captureStdout(t, func() error {
		return cmdCheck([]string{"-class", "ConcurrentBag", "-samples", "3", "-rows", "2", "-cols", "2",
			"-workers", "1", "-model", "queue"})
	})
	for _, want := range []string{"first failing test:", "shrunk to ", "Line-Up encountered a violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("monitor-judged sweep + shrink: output lacks %q:\n%s", want, out)
		}
	}
}
