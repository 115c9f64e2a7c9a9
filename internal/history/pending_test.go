package history_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lineup/internal/history"
)

// pendingByOps is Pending's definition: the operations of Ops that are not
// complete, in call order.
func pendingByOps(h *history.History) []history.Op {
	var out []history.Op
	for _, op := range h.Ops() {
		if !op.Complete {
			out = append(out, op)
		}
	}
	return out
}

// randomHistory interleaves ops operations on the given number of threads,
// each thread calling only when its last operation has returned. A complete
// history then returns every call still open; otherwise they stay pending.
func randomHistory(rng *rand.Rand, threads, ops int, complete bool) *history.History {
	h := &history.History{}
	open := map[int]history.Event{}
	ret := func(t int) {
		call := open[t]
		call.Kind, call.Result = history.Return, "ok"
		h.Events = append(h.Events, call)
		delete(open, t)
	}
	for n := 0; n < ops; {
		t := rng.Intn(threads)
		if _, busy := open[t]; busy {
			ret(t)
			continue
		}
		open[t] = history.Event{Thread: t, Kind: history.Call, Op: fmt.Sprintf("Op(%d)", n), Index: n}
		h.Events = append(h.Events, open[t])
		n++
	}
	for t := 0; complete && t < threads; t++ {
		if _, busy := open[t]; busy {
			ret(t)
		}
	}
	return h
}

// TestPendingMatchesOps holds Pending, which keeps each thread's open call,
// to its definition over Ops: the same operations in the same order, on
// well-formed histories with and without pending calls, and on the ones
// Pending hands to Ops — a thread overlapping itself, a return on another
// thread, identifiers reused or out of order, thread indices out of range.
func TestPendingMatchesOps(t *testing.T) {
	call := func(t, i int) history.Event {
		return history.Event{Thread: t, Kind: history.Call, Op: fmt.Sprintf("Op(%d)", i), Index: i}
	}
	ret := func(t, i int) history.Event {
		return history.Event{Thread: t, Kind: history.Return, Op: fmt.Sprintf("Op(%d)", i), Result: "ok", Index: i}
	}
	cases := map[string]*history.History{
		"empty":                          {},
		"empty stuck":                    {Stuck: true},
		"only a pending call":            {Events: []history.Event{call(3, 0)}},
		"stuck pending call":             {Events: []history.Event{call(0, 0), call(1, 1), ret(0, 0)}, Stuck: true},
		"Fig. 2":                         fig2History(),
		"pending in reverse order":       {Events: []history.Event{call(0, 5), call(1, 2), call(2, 9), ret(1, 2)}},
		"thread calls twice":             {Events: []history.Event{call(0, 0), call(0, 1), ret(0, 1)}},
		"returns on another thread":      {Events: []history.Event{call(0, 0), call(1, 1), ret(1, 0)}},
		"identifier reused while open":   {Events: []history.Event{call(0, 0), {Thread: 1, Kind: history.Call, Op: "B()", Index: 0}, ret(0, 0)}},
		"identifier reused after return": {Events: []history.Event{call(0, 0), ret(0, 0), {Thread: 1, Kind: history.Call, Op: "B()", Index: 0}}},
		"double return":                  {Events: []history.Event{call(0, 0), call(1, 1), ret(0, 0), {Thread: 0, Kind: history.Return, Result: "again", Index: 0}}},
		"unknown kind":                   {Events: []history.Event{call(0, 0), {Thread: 0, Kind: history.Kind(7), Index: 0}}},
		"a huge thread index":            {Events: []history.Event{call(99999999, 0), call(1, 1), ret(1, 1)}},
		"a negative thread index":        {Events: []history.Event{call(0, 0), call(-2, 1), ret(0, 0)}},
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		h := randomHistory(rng, 1+rng.Intn(5), rng.Intn(40), i%2 == 0)
		h.Stuck = i%3 == 0
		cases[fmt.Sprintf("random %d", i)] = h
	}
	for name, h := range cases {
		if got, want := h.Pending(), pendingByOps(h); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Pending() = %v, want %v", name, got, want)
		}
	}
	// A return without any call: Ops panics, and Pending with it.
	orphan := &history.History{Events: []history.Event{ret(0, 4)}}
	for name, f := range map[string]func(){"Ops": func() { orphan.Ops() }, "Pending": func() { orphan.Pending() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on a return without a call", name)
				}
			}()
			f()
		}()
	}
}
