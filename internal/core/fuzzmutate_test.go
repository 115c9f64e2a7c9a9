package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lineup/internal/collections"
	"lineup/internal/sched"
)

// fuzzCounterSubject is an in-package copy of the counter subject: the fuzz
// target exercises the unexported program() plumbing, so it cannot live in
// package core_test.
func fuzzCounterSubject() *Subject {
	inc := Op{Method: "Inc", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter).Inc(t)
		return collections.OK
	}}
	get := Op{Method: "Get", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(*collections.Counter).Get(t))
	}}
	dec := Op{Method: "Dec", Run: func(t *sched.Thread, obj any) string {
		obj.(*collections.Counter).Dec(t)
		return collections.OK
	}}
	return &Subject{
		Name: "Counter",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []Op{inc, get, dec},
	}
}

// FuzzMutate drives the matrix mutator with fuzzed (seed, chain-length)
// inputs and checks the two invariants everything downstream relies on:
// every mutant stays a well-formed matrix over the subject's op universe,
// and every execution of a mutant is replayable — re-running the recorded
// schedule through sched.ReplaySchedule reproduces the exact same event
// sequence with no divergence.
func FuzzMutate(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(42), uint8(17))
	f.Add(int64(-7), uint8(63))
	f.Add(int64(1<<40), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		const maxRows, maxCols = 3, 3
		sub := fuzzCounterSubject()
		mu := NewMutator(sub.Ops, maxRows, maxCols, rand.New(rand.NewSource(seed)))
		m := &Test{Rows: [][]Op{{sub.Ops[0]}, {sub.Ops[1]}}}
		for i := 0; i < int(steps%64)+1; i++ {
			m = mu.Mutate(m)
			if len(m.Rows) < 1 || len(m.Rows) > maxRows {
				t.Fatalf("step %d: mutant has %d threads, want 1..%d", i, len(m.Rows), maxRows)
			}
			for r, row := range m.Rows {
				if len(row) < 1 || len(row) > maxCols {
					t.Fatalf("step %d: thread %d has %d invocations, want 1..%d", i, r, len(row), maxCols)
				}
				for _, op := range row {
					if _, ok := sub.FindOp(op.Name()); !ok {
						t.Fatalf("step %d: invocation %s not in universe", i, op.Name())
					}
				}
			}
		}

		// Replay check on the final mutant: the first few explored
		// executions must reproduce bit-identically from their recorded
		// schedules.
		var opts Options
		cfg := opts.exploreConfig(false, false).Config
		execs := 0
		var holder any
		_, err := sched.Explore(sched.ExploreConfig{
			Config:          cfg,
			PreemptionBound: 1,
			MaxExecutions:   4,
		}, program(sub, m, &holder), func(out *sched.Outcome) bool {
			execs++
			if out.Err != nil {
				t.Fatalf("subject panicked on mutant:\n%s\n%v", m, out.Err)
			}
			var rh any
			replay, rerr := sched.ReplaySchedule(cfg, program(sub, m, &rh), out.Schedule)
			if rerr != nil {
				t.Fatalf("schedule diverged on replay of mutant:\n%s\n%v", m, rerr)
			}
			if !reflect.DeepEqual(replay.Events, out.Events) {
				t.Fatalf("replay produced different events for mutant:\n%s\noriginal: %v\nreplay:   %v",
					m, out.Events, replay.Events)
			}
			if replay.Stuck != out.Stuck {
				t.Fatalf("replay stuckness differs for mutant:\n%s", m)
			}
			return execs < 4
		})
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		if execs == 0 {
			t.Fatalf("no executions explored for mutant:\n%s", m)
		}
	})
}
