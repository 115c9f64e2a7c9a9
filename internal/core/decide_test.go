package core

import (
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// TestStuckDecisionOrder pins the order in which a stuck history's pending
// operations are decided (Definition 3): in h.Pending() order, the first one
// without a stuck serial witness is the violation's Pending, through the
// phase-1 spec and through a model alike. The spec is the queue's for the
// test "Take() / Enqueue(1)": Take blocks on the empty queue, Enqueue never
// blocks.
func TestStuckDecisionOrder(t *testing.T) {
	spec := history.ImportSpec([]*history.SerialHistory{
		{Pending: &history.SerialPending{Thread: 0, Name: "Take()"}},
		{Ops: []history.SerialOp{{Thread: 1, Name: "Enqueue(1)", Result: "ok"}, {Thread: 0, Name: "Take()", Result: "1"}}},
	})
	// stuck is the execution in which every thread called its one operation
	// and none returned; scheduler thread 0 is the setup thread.
	stuck := func(ops ...string) *sched.Outcome {
		out := &sched.Outcome{Stuck: true}
		for i, op := range ops {
			out.Events = append(out.Events, sched.OpEvent{Thread: sched.ThreadID(i + 1), Kind: sched.EvCall, Op: op, OpIndex: i})
		}
		return out
	}
	deciders := map[string]*phase2Decider{
		"spec":  Options{}.decider(spec, nil, monitor.ModeAuto),
		"model": Options{MonitorModel: monitor.QueueModel()}.decider(nil, nil, monitor.ModeAuto),
	}
	for _, c := range []struct {
		ops  []string
		want string // the pending operation the violation names
	}{
		{[]string{"Take()", "Enqueue(1)"}, "Enqueue(1)"}, // the first has a stuck witness
		{[]string{"Enqueue(1)", "Take()"}, "Enqueue(1)"},
		{[]string{"Enqueue(1)", "Enqueue(2)"}, "Enqueue(1)"}, // neither has one
	} {
		for name, d := range deciders {
			v, err := d.outcome(stuck(c.ops...))
			if err != nil || v == nil || v.Kind != StuckNoWitness || v.Pending == nil || v.Pending.Name != c.want {
				t.Errorf("%s on %q: got %v (err %v), want StuckNoWitness naming %s", name, c.ops, v, err, c.want)
			}
		}
	}
	for name, d := range deciders {
		if v, err := d.outcome(stuck("Take()")); v != nil || err != nil {
			t.Errorf("%s: Take() blocked on the empty queue has a stuck witness, got %v (err %v)", name, v, err)
		}
	}
}
