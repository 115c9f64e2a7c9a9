package monitor_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// hb incrementally builds well-formed histories for tests.
type hb struct {
	h    history.History
	next int
	open map[int]int // thread -> op index of its open call
	name map[int]string
}

func newHB() *hb { return &hb{open: map[int]int{}, name: map[int]string{}} }

func (b *hb) call(t int, op string) *hb {
	if _, ok := b.open[t]; ok {
		panic("hb: thread already has an open call")
	}
	b.open[t] = b.next
	b.name[b.next] = op
	b.h.Events = append(b.h.Events, history.Event{Thread: t, Kind: history.Call, Op: op, Index: b.next})
	b.next++
	return b
}

func (b *hb) ret(t int, result string) *hb {
	idx, ok := b.open[t]
	if !ok {
		panic("hb: return without open call")
	}
	delete(b.open, t)
	b.h.Events = append(b.h.Events, history.Event{Thread: t, Kind: history.Return, Op: b.name[idx], Result: result, Index: idx})
	return b
}

func (b *hb) stuck() *hb { b.h.Stuck = true; return b }

func (b *hb) done() *history.History { return &b.h }

// op builds one complete serial operation (call immediately followed by its
// return).
func (b *hb) op(t int, op, result string) *hb { return b.call(t, op).ret(t, result) }

func mustCheck(t *testing.T, m *monitor.Model, h *history.History, opts monitor.Options) *monitor.Outcome {
	t.Helper()
	out, err := monitor.Check(m, h, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return out
}

func TestQueueSequentialWitness(t *testing.T) {
	h := newHB().op(0, "Enqueue(10)", "ok").op(1, "TryDequeue()", "10").done()
	out := mustCheck(t, monitor.QueueModel(), h, monitor.Options{})
	if !out.Linearizable {
		t.Fatalf("expected linearizable, got %+v", out)
	}
	if len(out.Witness) != 2 || out.Witness[0].Op != "Enqueue(10)" {
		t.Fatalf("bad witness: %v", out.Witness)
	}
}

func TestQueueFig1ShapeViolation(t *testing.T) {
	// Enqueue(10) completed strictly before TryDequeue was even called, yet
	// TryDequeue failed — the Fig. 1 TryTake-on-non-empty shape.
	h := newHB().op(0, "Enqueue(10)", "ok").op(1, "TryDequeue()", "Fail").done()
	out := mustCheck(t, monitor.QueueModel(), h, monitor.Options{})
	if out.Linearizable {
		t.Fatal("expected a violation")
	}
}

func TestOverlapPermitsReordering(t *testing.T) {
	// TryDequeue is called before Enqueue, but they overlap, so the witness
	// may order the enqueue first.
	b := newHB()
	b.call(0, "TryDequeue()")
	b.op(1, "Enqueue(10)", "ok")
	b.ret(0, "10")
	out := mustCheck(t, monitor.QueueModel(), b.done(), monitor.Options{})
	if !out.Linearizable {
		t.Fatal("overlapping ops should permit the reordering")
	}
}

func TestStuckPendingClassicVsGeneralized(t *testing.T) {
	// Take() is stuck although the queue is non-empty: justified under the
	// classic Definition 1 (the pending call is simply dropped), rejected
	// under the generalized Definition 3 (Take cannot block here).
	h := newHB().op(0, "Enqueue(10)", "ok").call(1, "Take()").stuck().done()
	classic := mustCheck(t, monitor.QueueModel(), h, monitor.Options{Mode: monitor.ModeClassic})
	if !classic.Linearizable {
		t.Fatal("classic mode must accept the dropped pending Take")
	}
	gen := mustCheck(t, monitor.QueueModel(), h, monitor.Options{Mode: monitor.ModeGeneralized})
	if gen.Linearizable {
		t.Fatal("generalized mode must reject Take stuck on a non-empty queue")
	}
	if gen.FailedPending == nil || gen.FailedPending.Name != "Take()" {
		t.Fatalf("expected Take() as the unjustified pending op, got %v", gen.FailedPending)
	}
}

func TestStuckPendingJustified(t *testing.T) {
	// Take() stuck on an emptied queue is a legitimate stuck history.
	h := newHB().op(0, "Enqueue(10)", "ok").op(1, "TryDequeue()", "10").call(0, "Take()").stuck().done()
	out := mustCheck(t, monitor.QueueModel(), h, monitor.Options{})
	if !out.Linearizable {
		t.Fatalf("Take on an empty queue blocks legitimately: %+v", out)
	}
}

func TestMREFig9Shape(t *testing.T) {
	// Wait is stuck although Set completed after every Reset — the Fig. 9
	// lost-wakeup shape.
	h := newHB().op(1, "Set()", "ok").op(1, "Reset()", "ok").op(1, "Set()", "ok").call(0, "Wait()").stuck().done()
	out := mustCheck(t, monitor.MREModel(), h, monitor.Options{})
	if out.Linearizable {
		t.Fatal("Wait stuck after a final Set must be a violation")
	}
	// With a trailing Reset the stuck Wait is justified.
	h2 := newHB().op(1, "Set()", "ok").op(1, "Reset()", "ok").call(0, "Wait()").stuck().done()
	out2 := mustCheck(t, monitor.MREModel(), h2, monitor.Options{})
	if !out2.Linearizable {
		t.Fatal("Wait stuck after Reset is justified")
	}
}

func TestClassicCompletesPendingOp(t *testing.T) {
	// TryDequeue returned 10 although the Enqueue(10) never returned: the
	// classic check may linearize the pending enqueue to justify it.
	b := newHB()
	b.call(0, "Enqueue(10)")
	b.op(1, "TryDequeue()", "10")
	h := b.done()
	out := mustCheck(t, monitor.QueueModel(), h, monitor.Options{Mode: monitor.ModeClassic})
	if !out.Linearizable {
		t.Fatal("classic mode must complete the pending Enqueue")
	}
}

func TestPartitioningSplitsSetHistory(t *testing.T) {
	h := newHB().
		op(0, "Add(1)", "true").op(1, "Add(2)", "true").
		op(0, "Contains(2)", "true").op(1, "Remove(1)", "true").
		done()
	out := mustCheck(t, monitor.SetModel(), h, monitor.Options{})
	if !out.Linearizable || out.Stats.Parts != 2 {
		t.Fatalf("expected 2 linearizable parts, got %+v", out)
	}
	// Count observes the whole set and must disable the split.
	h2 := newHB().op(0, "Add(1)", "true").op(1, "Count()", "1").done()
	out2 := mustCheck(t, monitor.SetModel(), h2, monitor.Options{})
	if out2.Stats.Parts != 1 {
		t.Fatalf("Count must force a single part, got %+v", out2.Stats)
	}
	// And NoPartition forces a single part unconditionally.
	out3 := mustCheck(t, monitor.SetModel(), h, monitor.Options{NoPartition: true})
	if out3.Stats.Parts != 1 || !out3.Linearizable {
		t.Fatalf("NoPartition violated: %+v", out3)
	}
}

func TestPartitionedViolationReportsPart(t *testing.T) {
	// The value-2 part is contradictory (Contains(2) true before any Add(2)
	// with Add(2) completing strictly later).
	h := newHB().
		op(0, "Add(1)", "true").
		op(0, "Contains(2)", "true").op(1, "Add(2)", "true").
		done()
	out := mustCheck(t, monitor.SetModel(), h, monitor.Options{})
	if out.Linearizable || out.FailedPart != "2" {
		t.Fatalf("expected part 2 to fail, got %+v", out)
	}
}

// TestCheckPartsBounded: a history with thousands of partition keys is
// searched by at most GOMAXPROCS goroutines at a time, not by one per key.
func TestCheckPartsBounded(t *testing.T) {
	var inStep, maxInStep atomic.Int64
	m := monitor.SetModel()
	step := m.Step
	m.Step = func(state any, op string) (string, any, error) {
		n := inStep.Add(1)
		defer inStep.Add(-1)
		for old := maxInStep.Load(); n > old && !maxInStep.CompareAndSwap(old, n); old = maxInStep.Load() {
		}
		runtime.Gosched() // let every other runnable search reach its own Step
		return step(state, op)
	}
	b := newHB()
	for k := 0; k < 5000; k++ {
		b.op(k%3, fmt.Sprintf("Add(%d)", k), "true")
	}
	out := mustCheck(t, m, b.done(), monitor.Options{})
	if !out.Linearizable || out.Stats.Parts != 5000 || len(out.Witness) != 5000 {
		t.Fatalf("lin=%v parts=%d witness=%d", out.Linearizable, out.Stats.Parts, len(out.Witness))
	}
	for k, w := range out.Witness {
		if want := fmt.Sprintf("Add(%d)", k); w.Op != want {
			t.Fatalf("witness step %d is %s, want %s: parts merged out of first-appearance order", k, w.Op, want)
		}
	}
	if got, limit := maxInStep.Load(), int64(runtime.GOMAXPROCS(0)); got > limit {
		t.Fatalf("%d searches ran at once, GOMAXPROCS is %d", got, limit)
	}
}

func TestMemoizationPrunes(t *testing.T) {
	// Two rounds of three concurrent Inc()s followed by an impossible
	// Get()=7: the whole interleaving space must be refuted, and since every
	// Inc order reaches the same counter state the seen-set must collapse the
	// permutations.
	b := newHB()
	b.call(0, "Inc()").call(1, "Inc()").call(2, "Inc()")
	b.ret(0, "ok").ret(1, "ok").ret(2, "ok")
	b.call(0, "Inc()").call(1, "Inc()").call(2, "Inc()")
	b.ret(0, "ok").ret(1, "ok").ret(2, "ok")
	b.op(0, "Get()", "7")
	h := b.done()
	memo := mustCheck(t, monitor.CounterModel(), h, monitor.Options{})
	plain := mustCheck(t, monitor.CounterModel(), h, monitor.Options{NoMemo: true})
	if memo.Linearizable || plain.Linearizable {
		t.Fatal("Get()=7 after six Incs must be a violation")
	}
	if memo.Stats.MemoHits == 0 {
		t.Fatal("expected seen-set hits on the permutation-heavy history")
	}
	if memo.Stats.Visited >= plain.Stats.Visited {
		t.Fatalf("memoization did not prune: %d vs %d nodes", memo.Stats.Visited, plain.Stats.Visited)
	}
}

func TestWitnessRespectsPrecedenceAndModel(t *testing.T) {
	b := newHB()
	b.op(0, "Enqueue(10)", "ok")
	b.call(0, "Enqueue(20)")
	b.op(1, "TryDequeue()", "10")
	b.ret(0, "ok")
	b.op(1, "TryDequeue()", "20")
	h := b.done()
	out := mustCheck(t, monitor.QueueModel(), h, monitor.Options{})
	if !out.Linearizable {
		t.Fatal("expected linearizable")
	}
	// Replaying the witness through the model must reproduce its results.
	m := monitor.QueueModel()
	state := m.Init()
	for _, step := range out.Witness {
		res, next, err := m.Step(state, step.Op)
		if err != nil || res != step.Result {
			t.Fatalf("witness step %v does not replay: res=%q err=%v", step, res, err)
		}
		state = next
	}
}

func TestUnknownOpAborts(t *testing.T) {
	h := newHB().op(0, "Frobnicate(7)", "ok").done()
	_, err := monitor.Check(monitor.QueueModel(), h, monitor.Options{})
	if !errors.Is(err, monitor.ErrUnknownOp) {
		t.Fatalf("expected ErrUnknownOp, got %v", err)
	}
}

func TestStateLimit(t *testing.T) {
	b := newHB()
	for th := 0; th < 3; th++ {
		b.call(th, "Enqueue(1)")
	}
	for th := 0; th < 3; th++ {
		b.ret(th, "ok")
	}
	b.op(0, "Count()", "99") // unsatisfiable, forces exhaustive search
	_, err := monitor.Check(monitor.QueueModel(), b.done(), monitor.Options{MaxStates: 2})
	if !errors.Is(err, monitor.ErrStateLimit) {
		t.Fatalf("expected ErrStateLimit, got %v", err)
	}
}

func TestMalformedHistoryRejected(t *testing.T) {
	h := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "Inc()", Index: 0},
		{Thread: 0, Kind: history.Call, Op: "Inc()", Index: 1},
	}}
	if _, err := monitor.Check(monitor.CounterModel(), h, monitor.Options{}); err == nil {
		t.Fatal("expected a well-formedness error")
	}
}

func TestEmptyHistory(t *testing.T) {
	out := mustCheck(t, monitor.QueueModel(), &history.History{}, monitor.Options{})
	if !out.Linearizable {
		t.Fatal("the empty history is trivially linearizable")
	}
}

// randomHistory builds a random well-formed history over the queue
// vocabulary, optionally leaving pending calls (and marking the history
// stuck).
func randomHistory(rng *rand.Rand, allowPending bool) *history.History {
	methods := []string{"Enqueue(1)", "Enqueue(2)", "TryDequeue()", "Count()", "IsEmpty()"}
	results := []string{"ok", "1", "2", "Fail", "0", "true", "false"}
	nThreads := 1 + rng.Intn(3)
	b := newHB()
	openBy := make(map[int]bool)
	opsLeft := 1 + rng.Intn(5)
	steps := 0
	for steps < 40 && (opsLeft > 0 || len(openBy) > 0) {
		steps++
		t := rng.Intn(nThreads)
		if openBy[t] {
			b.ret(t, results[rng.Intn(len(results))])
			delete(openBy, t)
			continue
		}
		if opsLeft > 0 {
			b.call(t, methods[rng.Intn(len(methods))])
			openBy[t] = true
			opsLeft--
			if allowPending && rng.Intn(6) == 0 {
				break // leave this (and any other open) call pending
			}
		}
	}
	h := b.done()
	if len(h.Pending()) > 0 && rng.Intn(2) == 0 {
		h.Stuck = true
	}
	return h
}

// TestCheckAgainstNaiveOracle cross-validates the memoized, partitioned
// search against the independent brute-force enumerator on random histories
// in every mode.
func TestCheckAgainstNaiveOracle(t *testing.T) {
	model := monitor.QueueModel()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, true)
		for _, mode := range []monitor.Mode{monitor.ModeAuto, monitor.ModeClassic, monitor.ModeGeneralized} {
			opts := monitor.Options{Mode: mode}
			out, err := monitor.Check(model, h, opts)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			want, err := monitor.NaiveCheck(model, h, opts)
			if err != nil {
				t.Fatalf("NaiveCheck: %v", err)
			}
			if out.Linearizable != want {
				t.Logf("mode=%d history:\n%s", mode, h)
				t.Logf("check=%v naive=%v", out.Linearizable, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSetPartitionAgainstNaive cross-validates the P-compositional split on
// random set histories against the unsplit brute force.
func TestSetPartitionAgainstNaive(t *testing.T) {
	model := monitor.SetModel()
	methods := []string{"Add(1)", "Add(2)", "Remove(1)", "Remove(2)", "Contains(1)", "Contains(2)"}
	results := []string{"true", "false"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := newHB()
		openBy := make(map[int]bool)
		opsLeft := 1 + rng.Intn(6)
		for steps := 0; steps < 40 && (opsLeft > 0 || len(openBy) > 0); steps++ {
			t := rng.Intn(3)
			if openBy[t] {
				b.ret(t, results[rng.Intn(len(results))])
				delete(openBy, t)
			} else if opsLeft > 0 {
				b.call(t, methods[rng.Intn(len(methods))])
				openBy[t] = true
				opsLeft--
			}
		}
		h := b.done()
		out, err := monitor.Check(model, h, monitor.Options{})
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		want, err := monitor.NaiveCheck(model, h, monitor.Options{})
		if err != nil {
			t.Fatalf("NaiveCheck: %v", err)
		}
		if out.Linearizable != want {
			t.Logf("history:\n%s", h)
			t.Logf("check=%v (parts=%d) naive=%v", out.Linearizable, out.Stats.Parts, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
