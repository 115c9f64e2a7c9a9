// Package oracle holds every decision procedure of the checker to one
// executable definition of the paper's Definitions 1–3 and of line 4 of
// Fig. 5, written the way the paper states them: enumerate the orders of a
// history's operations that respect a precedence relation, and replay each
// through a monitor.Model (completions first, then linearizations, then the
// first sequential match). The procedures are met through one adapter each:
// spec lookup on the spec a model synthesizes (history.Spec), phase 1 of a
// real subject (core.SynthesizeSpec), the spec trie on arbitrary stores, the
// WGL search (monitor.Check) with and without its memo, monitor.Incremental,
// the fast monitors, the observation-file round trip,
// and the histories the explorer emits for the subject corpus.
//
// Linearizability checking is NP-hard, so brute force belongs in one place,
// and this is it. The package has no non-test file: no binary links it and
// the production line count does not include it.
package oracle

import (
	"errors"
	"slices"
	"strconv"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// orders calls visit with every order of n items that puts i before j
// whenever before(i, j), until visit returns true; it reports whether visit
// did.
func orders(n int, before func(i, j int) bool, visit func(order []int) bool) bool {
	order, placed := make([]int, 0, n), make([]bool, n)
	var extend func() bool
	extend = func() bool {
		if len(order) == n {
			return visit(order)
		}
	next:
		for i := range placed {
			if placed[i] {
				continue
			}
			for j := range placed {
				if !placed[j] && j != i && before(j, i) {
					continue next
				}
			}
			placed[i] = true
			order = append(order, i)
			if extend() {
				return true
			}
			order = order[:len(order)-1]
			placed[i] = false
		}
		return false
	}
	return extend()
}

// precedence is an order a witness must respect: a before b.
type precedence func(a, b history.Op) bool

// realTime is <H (Section 2.1.3): a returned before b was called.
func realTime(a, b history.Op) bool { return a.Complete && a.RetPos < b.CallPos }

// programOrder keeps only each thread's own order: the order of a serial
// execution's choices.
func programOrder(a, b history.Op) bool { return a.Thread == b.Thread && a.CallPos < b.CallPos }

// witness reports whether some order of ops that respects before replays
// through m: every complete operation reproduces its recorded result, an
// operation Definition 1 completes takes whatever result m gives it, none
// blocks, and then blocked, when set, blocks (Definition 2).
func witness(m *monitor.Model, ops []history.Op, before precedence, blocked *history.Op) (found bool, err error) {
	orders(len(ops), func(i, j int) bool { return before(ops[i], ops[j]) }, func(order []int) bool {
		state := m.Init()
		for _, i := range order {
			res, next, e := m.Step(state, ops[i].Name)
			switch {
			case errors.Is(e, monitor.ErrBlock):
				return false
			case e != nil:
				err = e
				return true
			case ops[i].Complete && res != ops[i].Result:
				return false
			}
			state = next
		}
		if blocked != nil {
			if _, _, e := m.Step(state, blocked.Name); !errors.Is(e, monitor.ErrBlock) {
				err = e
				return e != nil
			}
		}
		found = true
		return true
	})
	return found, err
}

// linearizable is the definition, with mode read as monitor.Options.Mode
// reads it. Definition 1: some completion of h — a return appended for any
// subset of its pending operations, the rest dropped — has a serial witness.
// Definitions 2 and 3: for every pending operation e, the reduced history H[e]
// has a stuck serial witness, the completed operations linearized to a state
// in which e blocks.
func linearizable(m *monitor.Model, h *history.History, mode monitor.Mode) (bool, error) {
	var done, pending []history.Op
	for _, op := range h.Ops() {
		if op.Complete {
			done = append(done, op)
		} else {
			pending = append(pending, op)
		}
	}
	if len(pending) == 0 || mode == monitor.ModeClassic || mode == monitor.ModeAuto && !h.Stuck {
		for subset := 0; subset < 1<<len(pending); subset++ {
			ops := slices.Clone(done)
			for k, e := range pending {
				if subset>>k&1 == 1 {
					ops = append(ops, e)
				}
			}
			if ok, err := witness(m, ops, realTime, nil); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	for i := range pending {
		if ok, err := witness(m, done, realTime, &pending[i]); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// serialRuns calls visit with the serial history of every serial order of
// ops' per-thread sequences replayed through m, each ending at the first call
// that blocks: what phase 1 would record if m were the subject.
func serialRuns(m *monitor.Model, ops []history.Op, visit func(*history.SerialHistory)) (err error) {
	orders(len(ops), func(i, j int) bool { return programOrder(ops[i], ops[j]) }, func(order []int) bool {
		s, state := &history.SerialHistory{}, m.Init()
		for _, i := range order {
			op := ops[i]
			res, next, e := m.Step(state, op.Name)
			if errors.Is(e, monitor.ErrBlock) {
				s.Pending = &history.SerialPending{Thread: op.Thread, Name: op.Name}
				break
			}
			if e != nil {
				err = e
				return true
			}
			s.Ops = append(s.Ops, history.SerialOp{Thread: op.Thread, Name: op.Name, Result: res})
			state = next
		}
		visit(s)
		return false
	})
	return err
}

// modelSpec is the specification m synthesizes for the per-thread operation
// sequences of h: the spec lookup and WGL then judge the same history.
func modelSpec(m *monitor.Model, h *history.History) (*history.Spec, error) {
	sp := history.NewSpec()
	return sp, serialRuns(m, h.Ops(), sp.Add)
}

// step is one step of a serial history: a call and how it continued.
type step struct {
	thread       int
	name, result string
	blocks       bool
}

func steps(s *history.SerialHistory) []step {
	out := make([]step, 0, len(s.Ops)+1)
	for _, op := range s.Ops {
		out = append(out, step{thread: op.Thread, name: op.Name, result: op.Result})
	}
	if s.Pending != nil {
		out = append(out, step{thread: s.Pending.Thread, name: s.Pending.Name, blocks: true})
	}
	return out
}

// key renders steps injectively (every string quoted), for set membership.
func key(st []step) string {
	var b []byte
	for _, x := range st {
		b = strconv.AppendInt(b, int64(x.thread), 10)
		b = strconv.AppendQuote(b, x.name)
		b = strconv.AppendQuote(b, x.result)
		b = strconv.AppendBool(b, x.blocks)
	}
	return string(b)
}

// conflict is line 4 of Fig. 5 on two serial histories: their longest common
// prefix ends in a call, that is, where they part the same thread calls the
// same operation and it continues differently — two results, or a result and
// a block.
func conflict(a, b []step) bool {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k < len(a) && k < len(b) && a[k].thread == b[k].thread && a[k].name == b[k].name
}

// serialSet is a set of serial histories compared step by step, with the
// determinism verdict over what it holds.
type serialSet struct {
	keys        map[string]bool
	steps       [][]step
	hists       []*history.SerialHistory
	full, stuck int
	nondet      bool
}

func newSerialSet() *serialSet { return &serialSet{keys: map[string]bool{}} }

func (r *serialSet) add(s *history.SerialHistory) {
	st := steps(s)
	k := key(st)
	if r.keys[k] {
		return
	}
	r.keys[k] = true
	for _, o := range r.steps {
		r.nondet = r.nondet || conflict(o, st)
	}
	r.steps, r.hists = append(r.steps, st), append(r.hists, s)
	if s.Pending != nil {
		r.stuck++
	} else {
		r.full++
	}
}

// witness reports whether some order of ops that respects before, followed
// by blocked when set, spells a history of the set.
func (r *serialSet) witness(ops []history.Op, before precedence, blocked *history.Op) bool {
	return orders(len(ops), func(i, j int) bool { return before(ops[i], ops[j]) }, func(order []int) bool {
		st := make([]step, 0, len(order)+1)
		for _, i := range order {
			st = append(st, step{thread: ops[i].Thread, name: ops[i].Name, result: ops[i].Result})
		}
		if blocked != nil {
			st = append(st, step{thread: blocked.Thread, name: blocked.Name, blocks: true})
		}
		return r.keys[key(st)]
	})
}
