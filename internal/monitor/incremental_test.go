package monitor_test

import (
	"errors"
	"math/rand"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// incrementalVerdict feeds h through an Incremental checker, retiring a
// window at every quiescent point the cut function selects (it is called with
// the number of completed operations buffered), and returns Finish's verdict
// on the residual — the streaming service's checking loop in miniature.
func incrementalVerdict(m *monitor.Model, h *history.History, opts monitor.Options, cut func(completed int) bool) (bool, error) {
	inc, err := monitor.NewIncremental(m, opts)
	if err != nil {
		return false, err
	}
	var buf []history.Event
	open, completed := 0, 0
	for _, e := range h.Events {
		buf = append(buf, e)
		if e.Kind == history.Call {
			open++
		} else {
			open--
			completed++
		}
		if open == 0 && cut(completed) {
			if _, err := inc.ExtendComplete(&history.History{Events: buf}); err != nil {
				return false, err
			}
			buf = buf[:0]
			completed = 0
		}
	}
	out, err := inc.Finish(&history.History{Events: buf, Stuck: h.Stuck})
	if err != nil {
		return false, err
	}
	return out.Linearizable, nil
}

// runIncremental retires a window at every quiescent cut with at least window
// completed operations.
func runIncremental(t *testing.T, m *monitor.Model, h *history.History, window int) bool {
	t.Helper()
	ok, err := incrementalVerdict(m, h, monitor.Options{}, func(completed int) bool { return completed >= window })
	if err != nil {
		t.Fatalf("incremental check: %v", err)
	}
	return ok
}

// flagModel is a one-bit register with two distinct blocking conditions:
// WaitFor0() blocks while the bit is 1 and WaitFor1() while it is 0, so two
// pending waits of a stuck history can only be justified from different
// states.
func flagModel() *monitor.Model {
	return &monitor.Model{
		Name: "flag",
		Init: func() any { return 0 },
		Step: func(state any, op string) (string, any, error) {
			x := state.(int)
			switch op {
			case "Set0()":
				return "ok", 0, nil
			case "Set1()":
				return "ok", 1, nil
			case "Get()":
				return string(rune('0' + x)), x, nil
			case "WaitFor0()", "WaitFor1()":
				if want := int(op[len("WaitFor")] - '0'); x != want {
					return "", nil, monitor.ErrBlock
				}
				return "ok", x, nil
			}
			return "", nil, monitor.ErrUnknownOp
		},
	}
}

// randomFlagHistory generates a stuck flag history: three threads run nOps
// Set0/Set1/Get operations whose results come from stepping a live model at
// return time, and nPending further threads each call a WaitFor at a random
// point and never return. Whether the waits are justified depends on which
// final states the overlapping Sets leave reachable, so both verdicts occur;
// corrupt flips one Get.
func randomFlagHistory(rng *rand.Rand, nOps, nPending int, corrupt bool) *history.History {
	m := flagModel()
	b := newHB()
	state := m.Init()
	open := map[int]string{}
	const threads = 3
	issued, waiting := 0, 0
	for issued < nOps || len(open) > 0 {
		if waiting < nPending && rng.Intn(nOps+1) == 0 {
			b.call(threads+waiting, []string{"WaitFor0()", "WaitFor1()"}[(waiting+rng.Intn(2))%2])
			waiting++
			continue
		}
		th := rng.Intn(threads)
		if op, busy := open[th]; busy && (rng.Intn(2) == 0 || issued >= nOps) {
			res, next, _ := m.Step(state, op)
			state = next
			b.ret(th, res)
			delete(open, th)
		} else if !busy && issued < nOps {
			op := []string{"Set0()", "Set1()", "Get()"}[rng.Intn(3)]
			b.call(th, op)
			open[th] = op
			issued++
		}
	}
	for ; waiting < nPending; waiting++ {
		b.call(threads+waiting, []string{"WaitFor0()", "WaitFor1()"}[waiting%2])
	}
	h := b.stuck().done()
	if corrupt {
		for i, e := range h.Events {
			if e.Kind == history.Return && e.Op == "Get()" {
				h.Events[i].Result = string(rune('0' + '1' - e.Result[0]))
				break
			}
		}
	}
	return h
}

// randomQueueHistory generates a random concurrent queue history whose
// results are assigned at return time by stepping a live model (so the
// completion order is a witness and the history is linearizable by
// construction); corrupt flips one result to break that.
func randomQueueHistory(rng *rand.Rand, m *monitor.Model, nOps int, corrupt bool) *history.History {
	b := newHB()
	state := m.Init()
	open := map[int]string{}
	const threads = 3
	issued := 0
	for issued < nOps || len(open) > 0 {
		th := rng.Intn(threads)
		if op, busy := open[th]; busy && (rng.Intn(2) == 0 || issued >= nOps) {
			res, next, err := m.Step(state, op)
			if err != nil {
				panic(err) // Enqueue/TryDequeue never block
			}
			state = next
			b.ret(th, res)
			delete(open, th)
		} else if !busy && issued < nOps {
			var op string
			if rng.Intn(2) == 0 {
				op = "Enqueue(" + string(rune('0'+rng.Intn(3))) + ")"
			} else {
				op = "TryDequeue()"
			}
			b.call(th, op)
			open[th] = op
			issued++
		}
	}
	h := b.done()
	if corrupt {
		rets := []int{}
		for i, e := range h.Events {
			if e.Kind == history.Return {
				rets = append(rets, i)
			}
		}
		i := rets[rng.Intn(len(rets))]
		wrong := []string{"0", "1", "2", "Fail", "ok"}
		for _, wr := range wrong {
			if wr != h.Events[i].Result {
				h.Events[i].Result = wr
				break
			}
		}
	}
	return h
}

// TestIncrementalMatchesBatch is the soundness-and-completeness check of the
// quiescent-cut decomposition: over random histories (half deliberately
// corrupted) and several window sizes, the windowed incremental verdict must
// equal the batch Check verdict.
func TestIncrementalMatchesBatch(t *testing.T) {
	m := monitor.QueueModel()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		h := randomQueueHistory(rng, m, 4+rng.Intn(10), trial%2 == 1)
		batch := mustCheck(t, m, h, monitor.Options{NoPartition: true})
		for _, w := range []int{1, 2, 4, 8} {
			if got := runIncremental(t, m, h, w); got != batch.Linearizable {
				t.Fatalf("trial %d window %d: incremental says %v, batch says %v\nhistory: %+v",
					trial, w, got, batch.Linearizable, h.Events)
			}
		}
	}
	// Stuck residuals with two or three pending waits: the generalized
	// definition quantifies per pending operation, over the whole frontier.
	fm := flagModel()
	verdicts := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		h := randomFlagHistory(rng, 2+rng.Intn(8), 2+rng.Intn(2), trial%4 == 3)
		batch := mustCheck(t, fm, h, monitor.Options{})
		verdicts[batch.Linearizable]++
		for _, w := range []int{1, 2, 4, 8} {
			if got := runIncremental(t, fm, h, w); got != batch.Linearizable {
				t.Fatalf("flag trial %d window %d: incremental says %v, batch says %v\nhistory: %+v",
					trial, w, got, batch.Linearizable, h.Events)
			}
		}
	}
	if verdicts[true] < 20 || verdicts[false] < 20 {
		t.Fatalf("flag generator is one-sided: %v", verdicts)
	}
}

// TestIncrementalFinishQuantifiesPerPendingOp is the counterexample to
// judging the residual once per frontier state: after Set0() ‖ Set1() the
// frontier is {0,1}; a pending WaitFor1() is justified from 0 and a pending
// WaitFor0() from 1, so the stuck history is linearizable (Definitions 2/3
// ask for some witness per pending operation) although no single state
// justifies both waits.
func TestIncrementalFinishQuantifiesPerPendingOp(t *testing.T) {
	m := flagModel()
	h := newHB().call(0, "Set0()").call(1, "Set1()").ret(0, "ok").ret(1, "ok").
		call(2, "WaitFor1()").call(3, "WaitFor0()").stuck().done()
	if out := mustCheck(t, m, h, monitor.Options{}); !out.Linearizable {
		t.Fatalf("batch Check rejects the history: %+v", out)
	}
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	if ok, err := inc.ExtendComplete(&history.History{Events: h.Events[:4]}); err != nil || !ok || inc.FrontierSize() != 2 {
		t.Fatalf("ExtendComplete: ok=%v err=%v frontier=%d, want true/nil/2", ok, err, inc.FrontierSize())
	}
	out, err := inc.Finish(&history.History{Events: h.Events[4:], Stuck: true})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !out.Linearizable {
		t.Fatalf("Finish rejects what batch Check accepts: failed pending %+v", out.FailedPending)
	}
	// A wait no frontier state justifies still fails.
	out, err = inc.Finish(newHB().call(2, "Get()").stuck().done())
	if err != nil || out.Linearizable {
		t.Fatalf("pending Get() (never blocks): linearizable=%v err=%v, want a violation", out.Linearizable, err)
	}
}

// FuzzIncremental cuts a generated history at an arbitrary subset of its
// quiescent points and holds the incremental verdict to the batch Check
// verdict on the whole history, under all three modes: queue histories
// truncated to leave pending operations, and stuck flag histories with two or
// three pending waits. Wired into `make check` via the Makefile fuzz target.
func FuzzIncremental(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(0))
	f.Add(int64(2), ^uint64(0), uint8(1))
	f.Add(int64(3), uint64(0xaaaa), uint8(2))
	f.Add(int64(61), uint64(5), uint8(3))
	f.Add(int64(7), uint64(1)<<63|1, uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, cuts uint64, sel uint8) {
		rng := rand.New(rand.NewSource(seed))
		opts := monitor.Options{NoPartition: true, Mode: monitor.Mode(sel % 3)}
		var m *monitor.Model
		var h *history.History
		if sel/3%2 == 0 {
			m = monitor.QueueModel()
			h = randomQueueHistory(rng, m, 3+rng.Intn(8), rng.Intn(3) == 0)
			h.Events = h.Events[:len(h.Events)-rng.Intn(4)]
			h.Stuck = rng.Intn(2) == 0
		} else {
			m = flagModel()
			h = randomFlagHistory(rng, 2+rng.Intn(8), 2+rng.Intn(2), rng.Intn(4) == 0)
		}
		batch, err := monitor.Check(m, h, opts)
		if err != nil {
			t.Fatalf("batch Check: %v", err)
		}
		point := 0
		got, err := incrementalVerdict(m, h, opts, func(int) bool {
			point++
			return cuts>>(point%64)&1 == 1
		})
		if err != nil {
			t.Fatalf("incremental check: %v", err)
		}
		if got != batch.Linearizable {
			t.Fatalf("seed %d cuts %#x mode %d: incremental says %v, batch says %v\nhistory (stuck=%v): %+v",
				seed, cuts, opts.Mode, got, batch.Linearizable, h.Stuck, h.Events)
		}
	})
}

// TestIncrementalFrontierKeepsAllWitnessStates: two overlapping writes have
// witnesses in both orders, so after the window retires the frontier must
// hold both final register values — collapsing to one would wrongly reject
// the read of the other.
func TestIncrementalFrontierKeepsAllWitnessStates(t *testing.T) {
	m := monitor.RegisterModel()
	window := newHB().call(0, "Write(1)").call(1, "Write(2)").ret(0, "ok").ret(1, "ok").done()
	for _, read := range []struct {
		res  string
		want bool
	}{{"1", true}, {"2", true}, {"3", false}} {
		inc, err := monitor.NewIncremental(m, monitor.Options{})
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}
		ok, err := inc.ExtendComplete(window)
		if err != nil || !ok {
			t.Fatalf("ExtendComplete: ok=%v err=%v", ok, err)
		}
		if got := inc.FrontierSize(); got != 2 {
			t.Fatalf("frontier size after overlapping writes = %d, want 2", got)
		}
		out, err := inc.Finish(newHB().op(0, "Read()", read.res).done())
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if out.Linearizable != read.want {
			t.Errorf("Read()=%s: linearizable=%v, want %v", read.res, out.Linearizable, read.want)
		}
	}
}

// TestIncrementalRejectsNonQuiescentWindow: a window with a pending call is
// not a quiescent cut and must be refused, not misjudged.
func TestIncrementalRejectsNonQuiescentWindow(t *testing.T) {
	m := monitor.CounterModel()
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	h := newHB().op(0, "Inc()", "ok").call(1, "Inc()").done()
	if _, err := inc.ExtendComplete(h); !errors.Is(err, monitor.ErrWindowNotQuiescent) {
		t.Fatalf("ExtendComplete on pending window: err=%v, want ErrWindowNotQuiescent", err)
	}
}

// TestIncrementalFailureIsSticky: once a window fails, the frontier is empty
// and every later window (and Finish) reports not linearizable.
func TestIncrementalFailureIsSticky(t *testing.T) {
	m := monitor.CounterModel()
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	ok, err := inc.ExtendComplete(newHB().op(0, "Get()", "5").done())
	if err != nil || ok {
		t.Fatalf("corrupt window: ok=%v err=%v, want rejection", ok, err)
	}
	if inc.FrontierSize() != 0 {
		t.Fatalf("frontier after failure = %d, want 0", inc.FrontierSize())
	}
	ok, err = inc.ExtendComplete(newHB().op(0, "Inc()", "ok").done())
	if err != nil || ok {
		t.Fatalf("window after failure: ok=%v err=%v, want sticky failure", ok, err)
	}
	out, err := inc.Finish(newHB().done())
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if out.Linearizable {
		t.Fatal("Finish after failed window reports linearizable")
	}
}

// TestIncrementalStuckResidual: the stuck marker applies to the residual
// window at Finish, reproducing the generalized stuck treatment.
func TestIncrementalStuckResidual(t *testing.T) {
	m := monitor.QueueModel()
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	if ok, err := inc.ExtendComplete(newHB().op(0, "Enqueue(10)", "ok").done()); err != nil || !ok {
		t.Fatalf("ExtendComplete: ok=%v err=%v", ok, err)
	}
	// Take() pending on a non-empty queue cannot be stuck: not linearizable
	// under the generalized definition.
	out, err := inc.Finish(newHB().call(1, "Take()").stuck().done())
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if out.Linearizable {
		t.Fatal("stuck Take() on non-empty queue reported linearizable")
	}
}
