package history_test

import (
	"strings"
	"testing"

	"lineup/internal/history"
)

// fig2History builds the example history H of the paper's Fig. 2:
//
//	(c set(0) A) (c get B) (c ok A) (c inc A) (c ok(0) B) (c get B) (c ok(1) B)
//
// i.e. A: set(0) then inc (pending), B: get=0 then get=1 (second pending
// is completed by ok(1)). Thread A = 0, B = 1.
func fig2History() *history.History {
	return &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "set(0)", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "get()", Index: 1},
		{Thread: 0, Kind: history.Return, Op: "set(0)", Result: "ok", Index: 0},
		{Thread: 0, Kind: history.Call, Op: "inc()", Index: 2},
		{Thread: 1, Kind: history.Return, Op: "get()", Result: "0", Index: 1},
		{Thread: 1, Kind: history.Call, Op: "get()", Index: 3},
		{Thread: 1, Kind: history.Return, Op: "get()", Result: "1", Index: 3},
	}}
}

func TestFig2ThreadSubhistories(t *testing.T) {
	h := fig2History()
	if !h.WellFormed() {
		t.Fatalf("Fig. 2 history should be well-formed")
	}
	subA := h.ThreadSub(0)
	if len(subA) != 3 {
		t.Fatalf("H|A should have 3 events, got %d", len(subA))
	}
	subB := h.ThreadSub(1)
	if len(subB) != 4 {
		t.Fatalf("H|B should have 4 events, got %d", len(subB))
	}
	// A's inc is pending.
	pend := h.Pending()
	if len(pend) != 1 || pend[0].Name != "inc()" || pend[0].Thread != 0 {
		t.Fatalf("expected pending inc by A, got %v", pend)
	}
	if h.Complete() {
		t.Fatalf("history with pending call reported complete")
	}
	if h.Serial() {
		t.Fatalf("overlapping history reported serial")
	}
	threads := h.Threads()
	if len(threads) != 2 || threads[0] != 0 || threads[1] != 1 {
		t.Fatalf("threads = %v", threads)
	}
}

func TestWellFormedRejectsBadHistories(t *testing.T) {
	// Return without call.
	bad := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Return, Op: "x", Index: 0},
	}}
	if bad.WellFormed() {
		t.Fatalf("return-before-call accepted")
	}
	// Two pending calls in one thread.
	bad = &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "x", Index: 0},
		{Thread: 0, Kind: history.Call, Op: "y", Index: 1},
	}}
	if bad.WellFormed() {
		t.Fatalf("double pending call accepted")
	}
	// Mismatched return.
	bad = &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "x", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "y", Index: 1},
	}}
	if bad.WellFormed() {
		t.Fatalf("mismatched return accepted")
	}
}

func TestPrecedes(t *testing.T) {
	h := fig2History()
	ops := h.Ops()
	// ops in call order: set(0) A, get B, inc A, get B.
	set, get1, inc, get2 := ops[0], ops[1], ops[2], ops[3]
	if !history.Precedes(set, inc) {
		t.Fatalf("set should precede inc")
	}
	if !history.Precedes(set, get2) {
		t.Fatalf("set should precede the second get")
	}
	if history.Precedes(set, get1) {
		t.Fatalf("set overlaps the first get")
	}
	if history.Precedes(get1, set) {
		t.Fatalf("first get overlaps set")
	}
	if history.Precedes(inc, get2) || history.Precedes(get2, inc) {
		t.Fatalf("pending inc overlaps the second get")
	}
}

func serial(ops ...history.SerialOp) *history.SerialHistory {
	return &history.SerialHistory{Ops: ops}
}

func so(thread int, name, result string) history.SerialOp {
	return history.SerialOp{Thread: thread, Name: name, Result: result}
}

func TestSpecNondeterminismDetection(t *testing.T) {
	// Fig. 3 / Section 2.1.2: after inc by A, get by B must deterministically
	// return 1; observing both 1 and 0 is nondeterminism.
	sp := history.NewSpec()
	sp.Add(serial(so(0, "inc()", "ok"), so(1, "get()", "1")))
	if _, bad := sp.Nondeterministic(); bad {
		t.Fatalf("single history flagged nondeterministic")
	}
	sp.Add(serial(so(0, "inc()", "ok"), so(1, "get()", "0")))
	w, bad := sp.Nondeterministic()
	if !bad {
		t.Fatalf("conflicting returns not flagged")
	}
	if w.Call != "get()" || w.Thread != 1 || w.Result1 != "1" || w.Result2 != "0" {
		t.Fatalf("bad witness: %v", w)
	}
	if len(w.Prefix) != 1 || w.Prefix[0] != so(0, "inc()", "ok") {
		t.Fatalf("witness prefix %v, want the inc", w.Prefix)
	}
	if !strings.Contains(w.String(), "get()") {
		t.Fatalf("witness rendering: %s", w)
	}
}

func TestSpecNondeterminismBlockVsReturn(t *testing.T) {
	// A call that sometimes returns and sometimes blocks after the same
	// serialized prefix is nondeterministic (Section 2.3).
	sp := history.NewSpec()
	sp.Add(serial(so(0, "dec()", "ok")))
	sp.Add(&history.SerialHistory{Pending: &history.SerialPending{Thread: 0, Name: "dec()"}})
	if _, bad := sp.Nondeterministic(); !bad {
		t.Fatalf("return-vs-block divergence not flagged")
	}
}

func TestSpecDifferentSchedulesAreNotNondeterminism(t *testing.T) {
	// Different interleavings with different results are fine as long as
	// each serialized prefix determines the next response.
	sp := history.NewSpec()
	sp.Add(serial(so(0, "inc()", "ok"), so(1, "get()", "1")))
	sp.Add(serial(so(1, "get()", "0"), so(0, "inc()", "ok")))
	if w, bad := sp.Nondeterministic(); bad {
		t.Fatalf("scheduler choice flagged as nondeterminism: %v", w)
	}
}

func TestWitnessFullBasic(t *testing.T) {
	sp := history.NewSpec()
	sp.Add(serial(so(0, "inc()", "ok"), so(1, "get()", "1")))
	sp.Add(serial(so(1, "get()", "0"), so(0, "inc()", "ok")))

	// Overlapping inc and get returning 0: witnessed by get-first.
	h := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "inc()", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "get()", Index: 1},
		{Thread: 1, Kind: history.Return, Op: "get()", Result: "0", Index: 1},
		{Thread: 0, Kind: history.Return, Op: "inc()", Result: "ok", Index: 0},
	}}
	if _, ok := sp.WitnessFull(h); !ok {
		t.Fatalf("overlapping history should be witnessed")
	}

	// inc strictly before get returning 0: no witness (get must see 1).
	h = &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "inc()", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "inc()", Result: "ok", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "get()", Index: 1},
		{Thread: 1, Kind: history.Return, Op: "get()", Result: "0", Index: 1},
	}}
	if _, ok := sp.WitnessFull(h); ok {
		t.Fatalf("ordered inc;get=0 must not be witnessed")
	}
}

func TestWitnessRespectsProgramOrder(t *testing.T) {
	// The witness must preserve per-thread order even for overlapping
	// operations: thread signatures with swapped results do not match.
	sp := history.NewSpec()
	sp.Add(serial(so(0, "a()", "1"), so(0, "b()", "2")))
	h := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "a()", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "a()", Result: "2", Index: 0},
		{Thread: 0, Kind: history.Call, Op: "b()", Index: 1},
		{Thread: 0, Kind: history.Return, Op: "b()", Result: "1", Index: 1},
	}}
	if _, ok := sp.WitnessFull(h); ok {
		t.Fatalf("swapped results witnessed")
	}
}

func TestWitnessStuckBasic(t *testing.T) {
	sp := history.NewSpec()
	// Serial behaviors of a one-permit semaphore: wait;wait blocks, and a
	// bare wait succeeds.
	sp.Add(serial(so(0, "wait()", "ok")))
	sp.Add(&history.SerialHistory{
		Ops:     []history.SerialOp{{Thread: 0, Name: "wait()", Result: "ok"}},
		Pending: &history.SerialPending{Thread: 1, Name: "wait()"},
	})

	// Concurrent: A's wait completed, B's wait stuck — witnessed.
	h := &history.History{Stuck: true, Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "wait()", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "wait()", Result: "ok", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "wait()", Index: 1},
	}}
	pending := h.Pending()
	if len(pending) != 1 {
		t.Fatalf("expected one pending op")
	}
	if _, ok := sp.WitnessStuck(h, pending[0]); !ok {
		t.Fatalf("stuck wait should be witnessed")
	}

	// A stuck wait by thread 0 (no completed ops) has no witness in this
	// spec (the spec says a bare wait succeeds).
	h = &history.History{Stuck: true, Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "wait()", Index: 0},
	}}
	if _, ok := sp.WitnessStuck(h, h.Pending()[0]); ok {
		t.Fatalf("unjustified stuck wait witnessed")
	}
}

func TestInterleavingRendering(t *testing.T) {
	h := fig2History()
	num := map[int]int{0: 1, 2: 2, 1: 3, 3: 4}
	s := h.Interleaving(num)
	want := "1[ 3[ ]1 2[ ]3 4[ ]4"
	if s != want {
		t.Fatalf("interleaving = %q, want %q", s, want)
	}
	h.Stuck = true
	if got := h.Interleaving(num); !strings.HasSuffix(got, "#") {
		t.Fatalf("stuck marker missing: %q", got)
	}
}

func TestToSerialRoundtrip(t *testing.T) {
	h := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "a()", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "a()", Result: "1", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "b()", Index: 1},
		{Thread: 1, Kind: history.Return, Op: "b()", Result: "2", Index: 1},
	}}
	s := history.ToSerial(h)
	if len(s.Ops) != 2 || s.Pending != nil {
		t.Fatalf("bad conversion: %v", s)
	}
	if s.Ops[0].Name != "a()" || s.Ops[1].Result != "2" {
		t.Fatalf("bad ops: %v", s.Ops)
	}
	if s.Key() == "" || s.String() == "" {
		t.Fatalf("empty renderings")
	}
}

func TestSerialHistoryIsItsOwnWitness(t *testing.T) {
	// Fundamental soundness property: every serial history added to a spec
	// witnesses the history it came from.
	sp := history.NewSpec()
	h := &history.History{Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "a()", Index: 0},
		{Thread: 0, Kind: history.Return, Op: "a()", Result: "1", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "b()", Index: 1},
		{Thread: 1, Kind: history.Return, Op: "b()", Result: "2", Index: 1},
		{Thread: 0, Kind: history.Call, Op: "c()", Index: 2},
		{Thread: 0, Kind: history.Return, Op: "c()", Result: "3", Index: 2},
	}}
	sp.Add(history.ToSerial(h))
	if _, ok := sp.WitnessFull(h); !ok {
		t.Fatalf("serial history not witnessed by itself")
	}
}

// TestThreadNameRoundTrips: ThreadIndex inverts ThreadName, and refuses every
// name ThreadName does not give.
func TestThreadNameRoundTrips(t *testing.T) {
	for i := 0; i < 100; i++ {
		if got, ok := history.ThreadIndex(history.ThreadName(i)); !ok || got != i {
			t.Errorf("ThreadIndex(ThreadName(%d) = %q) = %d, %v", i, history.ThreadName(i), got, ok)
		}
	}
	for _, name := range []string{"", "a", "AB", "T5", "T25", "T026", "T+26", "T-26", "t26", "T26x"} {
		if i, ok := history.ThreadIndex(name); ok {
			t.Errorf("ThreadIndex(%q) = %d, want a refusal", name, i)
		}
	}
}
