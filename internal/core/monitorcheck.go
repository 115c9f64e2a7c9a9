package core

import (
	"sync"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// decision builds phase 2's one question per distinct history, asked of
// the first execution that yields it: has its history a witness, and if not,
// which pending operation has no stuck serial witness? The history's own
// stuck marker picks the definition (Fig. 5 lines 8 and 13): a complete
// history needs a full serial witness, a stuck one a stuck serial witness for
// every pending operation (Definition 3). With a model the monitor runs that
// loop itself on the materialized history; mode is monitor.ModeClassic only
// under CheckWithMonitor's ClassicOnly, the one place Definition 1 is
// decided. Without one it is specDecide's lookup in phase 1's specification
// set, on operations taken straight from the execution's events into a
// pooled buffer: decisions run on several workers at once.
func (o Options) decision(spec *history.Spec, mode monitor.Mode) func(*sched.Outcome) (ok bool, pending *history.Op, err error) {
	if model := o.MonitorModel; model != nil {
		opts := monitor.Options{Mode: mode, Telemetry: o.Telemetry}
		return func(out *sched.Outcome) (bool, *history.Op, error) {
			h, err := OutcomeHistory(out)
			if err != nil {
				return false, nil, err
			}
			res, err := monitor.Check(model, h, opts)
			if err != nil {
				return false, nil, err
			}
			return res.Linearizable, res.FailedPending, nil
		}
	}
	return func(out *sched.Outcome) (bool, *history.Op, error) {
		buf := opBufs.Get().(*[]history.Op)
		defer opBufs.Put(buf)
		*buf = appendOps((*buf)[:0], out.Events)
		ok, pending := specDecide(spec, *buf, out.Stuck)
		return ok, pending, nil
	}
}

// specDecide is decision's spec lookup on a history's operations in call
// order: a full serial witness, or a stuck one of H[e] for every pending e;
// it returns the first pending operation without one.
func specDecide(spec *history.Spec, ops []history.Op, stuck bool) (bool, *history.Op) {
	if !stuck {
		_, ok := spec.WitnessOps(ops, -1)
		return ok, nil
	}
	for _, e := range ops {
		if e.Complete {
			continue
		}
		if _, ok := spec.WitnessOps(ops, e.Thread); !ok {
			return false, &e
		}
	}
	return true, nil
}

// opBufs holds the operation buffers of the spec decisions in flight.
var opBufs = sync.Pool{New: func() any { return new([]history.Op) }}

// appendOps appends what OutcomeHistory(out).Ops() would give to ops. The
// events are well-formed, as appendKey has checked: a return belongs
// to its thread's last call.
func appendOps(ops []history.Op, events []sched.OpEvent) []history.Op {
	for pos, e := range events {
		th := int(e.Thread) - 1 // see OutcomeHistory
		if e.Kind == sched.EvCall {
			ops = append(ops, history.Op{Thread: th, Name: e.Op, CallPos: pos, RetPos: -1, Index: e.OpIndex})
			continue
		}
		i := len(ops) - 1
		for ops[i].Thread != th {
			i--
		}
		ops[i].Result, ops[i].Complete, ops[i].RetPos = e.Result, true, pos
	}
	return ops
}

// CheckWithMonitor checks sub against an executable sequential model using
// the monitor as phase 2's decision procedure: it enumerates the concurrent
// executions of sub on m and decides witness existence for every distinct
// history by model replay. No phase-1 serial enumeration runs — the model is
// the specification. ClassicOnly selects the original Definition 1 treatment
// of pending operations; it is the one place Definition 1 is decided.
func CheckWithMonitor(sub *Subject, model *monitor.Model, m *Test, opts RefOptions) (*Result, error) {
	opts.MonitorModel = model
	mode := monitor.ModeAuto
	if opts.ClassicOnly {
		mode = monitor.ModeClassic
	}
	return phase2(sub, m, nil, opts.Options, mode)
}

// RefOptions configures CheckWithMonitor.
type RefOptions struct {
	Options
	// ClassicOnly skips the stuck-history check, i.e. it applies the
	// original Definition 1 instead of the generalized Definition 3. It
	// exists to demonstrate the paper's Section 2.2.2: the classic
	// definition cannot detect erroneous blocking (Counter2's leaked lock),
	// while the generalized definition can.
	ClassicOnly bool
}
