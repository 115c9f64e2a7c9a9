package core

import (
	"reflect"
	"strings"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// TestCoverageIndependentOfArrivalOrder feeds one check's outcomes to the
// phase-2 accumulator in two arrival orders, each at its fixed position, and
// then a second check's outcomes, into two Coverages. Parallel workers meet a
// check's histories in any order, so the history-shape hashes must not depend
// on it: both Coverages must hold the same hash set.
func TestCoverageIndependentOfArrivalOrder(t *testing.T) {
	call := func(th sched.ThreadID, op string) sched.OpEvent {
		return sched.OpEvent{Thread: th, Kind: sched.EvCall, Op: op}
	}
	ret := func(th sched.ThreadID, op, res string) sched.OpEvent {
		return sched.OpEvent{Thread: th, Kind: sched.EvReturn, Op: op, Result: res}
	}
	type visit struct {
		pos sched.Pos
		out sched.Outcome
	}
	first := []visit{
		{sched.Pos{0}, sched.Outcome{Events: []sched.OpEvent{call(1, "Set(5)"), ret(1, "Set(5)", "ok"), call(2, "Get()"), ret(2, "Get()", "5")}}},
		{sched.Pos{1}, sched.Outcome{Events: []sched.OpEvent{call(2, "Get()"), ret(2, "Get()", "0"), call(1, "Set(5)"), ret(1, "Set(5)", "ok")}}},
		{sched.Pos{1, 0}, sched.Outcome{Events: []sched.OpEvent{call(1, "Set(5)"), call(2, "Get()"), ret(2, "Get()", "0"), ret(1, "Set(5)", "ok")}}},
	}
	second := []visit{
		{sched.Pos{0}, sched.Outcome{Events: []sched.OpEvent{call(1, "Set(7)"), ret(1, "Set(7)", "ok"), call(2, "Get()"), ret(2, "Get()", "7")}}},
		{sched.Pos{1}, sched.Outcome{Events: []sched.OpEvent{call(2, "Get()"), call(1, "Set(7)")}, Stuck: true}},
	}
	check := func(cov *Coverage, visits []visit, reverse bool) {
		acc := newPhase2Acc(Options{}.decider(history.NewSpec(), nil, monitor.ModeAuto), true, 0)
		for i := range visits {
			v := &visits[i]
			if reverse {
				v = &visits[len(visits)-1-i]
			}
			acc.visit(&v.out, v.pos)
		}
		if len(acc.errs) > 0 {
			t.Fatalf("fixture outcome refused: %v", acc.errs[0].err)
		}
		cov.add(acc, nil)
	}
	inOrder, reversed := NewCoverage(), NewCoverage()
	check(inOrder, first, false)
	check(reversed, first, true)
	if !reflect.DeepEqual(inOrder.hists, reversed.hists) {
		t.Fatalf("one check's history shapes depend on arrival order: %d vs %d hashes", len(inOrder.hists), len(reversed.hists))
	}
	check(inOrder, second, false)
	check(reversed, second, false)
	if !reflect.DeepEqual(inOrder.hists, reversed.hists) {
		t.Fatalf("a second check's shapes depend on the first's arrival order: %d vs %d hashes", len(inOrder.hists), len(reversed.hists))
	}
	if len(inOrder.hists) != 4 {
		t.Fatalf("got %d history shapes, want 4 (Set(7) renames to Set(5))", len(inOrder.hists))
	}
}

// FuzzHistoryKey holds the history key to its definition on hostile strings:
// two outcomes share a key exactly when their sequences of thread, kind,
// operation, result and stuck marker are equal. The first program byte says
// which outcomes are stuck and whether the operation a is relaxed, whose
// returns are then recorded with the wildcard, as the program records them;
// every further byte is one event of outcome A or B, its thread, kind,
// operation and result picked from {a, b, c}.
func FuzzHistoryKey(f *testing.F) {
	f.Add("", ",", "\x00", []byte{0, 0x04, 0x8c, 0x0c, 0x84})
	f.Add("\xff", strings.Repeat("x", 130), "", []byte{1, 0x00, 0x80, 0x0c, 0x8c})
	f.Add("a", "a,a", "a", []byte{0, 0x00, 0x09, 0x04, 0x2d, 0x88, 0x81, 0xa4, 0xc5})
	f.Add("a", "a,a", "x", []byte{4, 0x00, 0x04, 0x80, 0xa4})
	f.Add("a", "aa", "", []byte{0, 0x24, 0x8c}) // a → aa against aa → a
	f.Fuzz(func(t *testing.T, a, b, c string, prog []byte) {
		if len(prog) == 0 {
			return
		}
		vals := [4]string{a, b, c, a}
		relaxed := prog[0]&4 != 0
		var outs [2]sched.Outcome
		outs[0].Stuck, outs[1].Stuck = prog[0]&1 != 0, prog[0]&2 != 0
		for _, p := range prog[1:] {
			e := sched.OpEvent{Thread: sched.ThreadID(1 + p&3), Op: vals[p>>3&3]}
			if p&4 != 0 {
				e.Kind, e.Result = sched.EvReturn, vals[p>>5&3]
				if relaxed && e.Op == a {
					e.Result = RelaxedResult
				}
			}
			outs[p>>7].Events = append(outs[p>>7].Events, e)
		}
		// The reference: the sequences the key is defined over.
		type seq struct {
			th     sched.ThreadID
			kind   sched.EventKind
			op     string
			result string
		}
		spelled := func(out *sched.Outcome) []seq {
			s := []seq{}
			for _, e := range out.Events {
				s = append(s, seq{e.Thread, e.Kind, e.Op, e.Result})
			}
			return s
		}
		hc := newHistCache()
		keyA, errA := appendKey(nil, &outs[0])
		keyB, errB := appendKey(nil, &outs[1])
		if errA != nil || errB != nil {
			return // stuck outside any operation: refused, never keyed
		}
		enA, _ := hc.probe(keyA, outs[0].Stuck)
		enB, _ := hc.probe(keyB, outs[1].Stuck)
		want := outs[0].Stuck == outs[1].Stuck && reflect.DeepEqual(spelled(&outs[0]), spelled(&outs[1]))
		if (enA == enB) != want {
			t.Fatalf("shared key %v, equal histories %v:\nA %q\nB %q", enA == enB, want, enA.key, enB.key)
		}
	})
}
