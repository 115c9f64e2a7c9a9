package core

import (
	"errors"
	"slices"

	"lineup/internal/history"
	"lineup/internal/sched"
)

// FinalThread is the history thread index used for the teardown
// pseudo-thread that executes a test's final invocation sequence; it is
// always len(Rows).
func (m *Test) FinalThread() int { return len(m.Rows) }

// program builds the sched.Program for one test of one subject. The object
// holder is shared across executions of the same exploration; the setup
// thread overwrites it with a fresh object each time. An operation o relaxes
// (see Relax) is recorded with RelaxedResult as its result, so every history
// the program yields carries the wildcard: phase 1's and phase 2's alike.
func (o Options) program(sub *Subject, m *Test, holder *any) sched.Program {
	// run is the body that calls ops in order as operations of the history,
	// with their names and relaxation resolved once per exploration.
	run := func(ops []Op) func(*sched.Thread) {
		names, relaxed := opNames(ops), make([]bool, len(ops))
		for i, name := range names {
			relaxed[i] = slices.Contains(o.RelaxedOps, name)
		}
		return func(t *sched.Thread) {
			for i, op := range ops {
				t.OpStart(names[i])
				res := op.Run(t, *holder)
				if relaxed[i] {
					res = RelaxedResult
				}
				t.OpEnd(names[i], res)
			}
		}
	}
	prog := sched.Program{
		Setup: func(t *sched.Thread) {
			*holder = sub.New(t)
			for _, op := range m.Init {
				op.Run(t, *holder)
			}
		},
	}
	for _, row := range m.Rows {
		prog.Threads = append(prog.Threads, run(row))
	}
	if len(m.Final) > 0 {
		prog.Teardown = run(m.Final)
	}
	return prog
}

// opNames resolves the display names of a row once per exploration. Name()
// formats the operation (fmt.Sprintf for parameterized ops), which is pure
// per-op work an exploration would otherwise repeat on every one of its
// thousands of executions.
func opNames(row []Op) []string {
	names := make([]string, len(row))
	for i, op := range row {
		names[i] = op.Name()
	}
	return names
}

// OutcomeHistory converts a scheduler execution outcome into its history,
// exported for tests and tooling outside core. Scheduler thread IDs are
// shifted down by one because the setup pseudo-thread always takes ID 0 and
// records no events; test thread i therefore appears as history thread i,
// and the teardown thread as FinalThread(). Phase 1 (serialHistory) and
// phase 2 (appendKey, appendOps) read the events the same way without it;
// phase 2 materializes the history of a violation only.
func OutcomeHistory(out *sched.Outcome) (*history.History, error) {
	h := &history.History{Stuck: out.Stuck, Events: make([]history.Event, 0, len(out.Events))}
	for _, e := range out.Events {
		if e.Thread == 0 {
			return nil, errSetupEvent
		}
		ev := history.Event{Thread: int(e.Thread) - 1, Kind: history.Call, Op: e.Op, Result: e.Result, Index: e.OpIndex}
		if e.Kind == sched.EvReturn {
			ev.Kind = history.Return
		}
		h.Events = append(h.Events, ev)
	}
	if out.Stuck && len(h.Pending()) == 0 {
		return nil, errStuckOutside
	}
	return h, nil
}

var errSetupEvent = errors.New("core: unexpected history event from setup thread")
var errStuckOutside = errors.New("core: execution stuck outside any operation (constructor or init sequence blocked)")

// serialHistory is history.ToSerial(OutcomeHistory(out)) for the outcome of a
// serial execution, built from its events, with OutcomeHistory's errors (the
// setup thread's events come before any other) and ToSerial's panic.
func serialHistory(out *sched.Outcome) (*history.SerialHistory, error) {
	s := &history.SerialHistory{Ops: make([]history.SerialOp, 0, len(out.Events)/2)}
	var call *sched.OpEvent // the open call
	for i := range out.Events {
		switch e := &out.Events[i]; {
		case e.Thread == 0:
			return nil, errSetupEvent
		case e.Kind == sched.EvCall && call == nil:
			call = e
		case e.Kind == sched.EvReturn && call != nil && e.OpIndex == call.OpIndex:
			s.Ops = append(s.Ops, history.SerialOp{Thread: int(call.Thread) - 1, Name: call.Op, Result: e.Result})
			call = nil
		default:
			panic("core: serialHistory on a non-serial execution")
		}
	}
	switch {
	case call == nil && out.Stuck:
		return nil, errStuckOutside
	case call != nil && !out.Stuck:
		panic("core: serialHistory on a non-serial execution")
	case call != nil:
		s.Pending = &history.SerialPending{Thread: int(call.Thread) - 1, Name: call.Op}
	}
	return s, nil
}

// ExploreHistories enumerates the distinct concurrent histories that
// phase-2 exploration of sub on m emits (deduplicated, with relaxed results
// wildcarded) and calls visit for each one, without deciding witness
// existence. Returning false from visit stops the exploration. This exposes
// the observation side of phase 2 for crosscheck tests and external
// monitoring tools.
func ExploreHistories(sub *Subject, m *Test, opts Options, visit func(*history.History) bool) error {
	var holder any
	var err error
	// There is nowhere to report a contained failure, so the first one aborts
	// whatever Options.MaxFailures says.
	cfg := opts.exploreConfig(false, false)
	cfg.ContinueOnFailure = false
	cache, key := newHistCache(), []byte(nil)
	_, exploreErr := sched.Explore(cfg, opts.program(sub, m, &holder), func(out *sched.Outcome) bool {
		// Each distinct history is handed over once; a conversion error stops.
		if key, err = appendKey(key[:0], out); err != nil {
			return false
		}
		if _, isNew := cache.probe(key, out.Stuck); isNew {
			var h *history.History
			if h, err = OutcomeHistory(out); err == nil {
				return visit(h)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	return exploreErr
}
