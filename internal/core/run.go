package core

import (
	"fmt"

	"lineup/internal/history"
	"lineup/internal/sched"
)

// FinalThread is the history thread index used for the teardown
// pseudo-thread that executes a test's final invocation sequence; it is
// always len(Rows).
func (m *Test) FinalThread() int { return len(m.Rows) }

// program builds the sched.Program for one test of one subject. The object
// holder is shared across executions of the same exploration; the setup
// thread overwrites it with a fresh object each time.
func program(sub *Subject, m *Test, holder *any) sched.Program {
	prog := sched.Program{
		Setup: func(t *sched.Thread) {
			*holder = sub.New(t)
			for _, op := range m.Init {
				op.Run(t, *holder)
			}
		},
	}
	for _, row := range m.Rows {
		row := row
		names := opNames(row)
		prog.Threads = append(prog.Threads, func(t *sched.Thread) {
			for i, op := range row {
				t.OpStart(names[i])
				res := op.Run(t, *holder)
				t.OpEnd(names[i], res)
			}
		})
	}
	if len(m.Final) > 0 {
		names := opNames(m.Final)
		prog.Teardown = func(t *sched.Thread) {
			for i, op := range m.Final {
				t.OpStart(names[i])
				res := op.Run(t, *holder)
				t.OpEnd(names[i], res)
			}
		}
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

// toHistory converts an execution outcome into a history. Scheduler thread
// IDs are shifted down by one because the setup pseudo-thread always takes
// ID 0 and records no events; test thread i therefore appears as history
// thread i, and the teardown thread as FinalThread().
func toHistory(out *sched.Outcome) (*history.History, error) {
	h := &history.History{Stuck: out.Stuck, Events: make([]history.Event, 0, len(out.Events))}
	for _, e := range out.Events {
		if e.Thread == 0 {
			return nil, fmt.Errorf("core: unexpected history event from setup thread")
		}
		kind := history.Call
		if e.Kind == sched.EvReturn {
			kind = history.Return
		}
		h.Events = append(h.Events, history.Event{
			Thread: int(e.Thread) - 1,
			Kind:   kind,
			Op:     e.Op,
			Result: e.Result,
			Index:  e.OpIndex,
		})
	}
	if out.Stuck && len(h.Pending()) == 0 {
		return nil, fmt.Errorf("core: execution stuck outside any operation (constructor or init sequence blocked)")
	}
	return h, nil
}

// OutcomeHistory converts a scheduler execution outcome into a history. It
// is the exported form of the conversion phase 1 and phase 2 apply to every
// explored execution, for tests and tooling outside core.
func OutcomeHistory(out *sched.Outcome) (*history.History, error) {
	return toHistory(out)
}

// ExploreHistories enumerates the distinct concurrent histories that
// phase-2 exploration of sub on m emits (deduplicated, with relaxed results
// normalized) and calls visit for each one, without deciding witness
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
	_, exploreErr := sched.Explore(cfg, program(sub, m, &holder), newHistories(newHistCache(), opts.relaxedSet(), &err, visit))
	if err != nil {
		return err
	}
	return exploreErr
}

// materialize builds the normalized history of an outcome.
func materialize(out *sched.Outcome, relaxed map[string]bool) (*history.History, error) {
	h, err := toHistory(out)
	if err != nil {
		return nil, err
	}
	normalizeRelaxed(h, relaxed)
	return h, nil
}

// newHistories adapts a history visitor to an outcome visitor that hands it
// every distinct history once, deduplicated through cache. A conversion error
// lands in *errp and stops the exploration.
func newHistories(cache *histCache, relaxed map[string]bool, errp *error, visit func(*history.History) bool) func(*sched.Outcome) bool {
	return func(out *sched.Outcome) bool {
		_, isNew, err := cache.lookup(out, relaxed)
		if err == nil && isNew {
			var h *history.History
			if h, err = materialize(out, relaxed); err == nil {
				return visit(h)
			}
		}
		if err != nil {
			*errp = err
		}
		return err == nil
	}
}
