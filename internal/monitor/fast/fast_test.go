package fast

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// hb is the event-order history builder the monitor tests use, local to this
// package so the fast checkers are tested over the same construction idiom.
type hb struct {
	h    history.History
	next int
	open map[int]int
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

func (b *hb) op(t int, op, result string) *hb { return b.call(t, op).ret(t, result) }

func (b *hb) done() *history.History { return &b.h }

// verdict runs the fast checker and renders the three-way outcome.
func verdict(t *testing.T, k Kind, h *history.History) string {
	t.Helper()
	ok, err := Check(k, h)
	if errors.Is(err, ErrAmbiguous) {
		return "ambiguous"
	}
	if err != nil {
		t.Fatalf("Check(%v): %v", k, err)
	}
	if ok {
		return "true"
	}
	return "false"
}

func TestQueueDirected(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
		want string
	}{
		{"sequential fifo", newHB().op(0, "Enqueue(1)", "ok").op(0, "Enqueue(2)", "ok").
			op(0, "Dequeue()", "1").op(0, "Dequeue()", "2").done(), "true"},
		{"fifo inversion", newHB().op(0, "Enqueue(1)", "ok").op(0, "Enqueue(2)", "ok").
			op(0, "Dequeue()", "2").op(0, "Dequeue()", "1").done(), "false"},
		{"dequeue of unknown value", newHB().op(0, "Enqueue(1)", "ok").op(0, "Dequeue()", "7").done(), "false"},
		{"double dequeue", newHB().op(0, "Enqueue(1)", "ok").
			op(0, "Dequeue()", "1").op(0, "Dequeue()", "1").done(), "false"},
		{"dequeue precedes enqueue", newHB().op(0, "Dequeue()", "1").op(0, "Enqueue(1)", "ok").done(), "false"},
		{"concurrent overlap linearizable", newHB().call(0, "Enqueue(1)").call(1, "Enqueue(2)").
			ret(0, "ok").ret(1, "ok").call(0, "Dequeue()").call(1, "Dequeue()").
			ret(0, "2").ret(1, "1").done(), "true"},
		{"undequeued rival inversion", newHB().op(0, "Enqueue(1)", "ok").op(0, "Enqueue(2)", "ok").
			op(0, "Dequeue()", "2").done(), "false"},
		{"failed trydequeue is outside fragment", newHB().op(0, "TryDequeue()", "Fail").done(), "ambiguous"},
		{"observer is outside fragment", newHB().op(0, "Enqueue(1)", "ok").op(0, "Count()", "1").done(), "ambiguous"},
		{"duplicate value is outside fragment", newHB().op(0, "Enqueue(1)", "ok").
			op(0, "Dequeue()", "1").op(0, "Enqueue(1)", "ok").done(), "ambiguous"},
		{"pending op is outside fragment", newHB().op(0, "Enqueue(1)", "ok").call(1, "Dequeue()").done(), "ambiguous"},
		{"empty history", newHB().done(), "true"},
	}
	for _, tc := range cases {
		if got := verdict(t, KindQueue, tc.h); got != tc.want {
			t.Errorf("%s: got %s, want %s\n%s", tc.name, got, tc.want, tc.h)
		}
	}
}

func TestStackDirected(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
		want string
	}{
		{"sequential lifo", newHB().op(0, "Push(1)", "ok").op(0, "Push(2)", "ok").
			op(0, "Pop()", "2").op(0, "Pop()", "1").done(), "true"},
		{"pop of unknown value", newHB().op(0, "Push(1)", "ok").op(0, "Pop()", "7").done(), "false"},
		{"double pop", newHB().op(0, "Push(1)", "ok").op(0, "Pop()", "1").op(0, "Pop()", "1").done(), "false"},
		{"pop precedes push", newHB().op(0, "Pop()", "1").op(0, "Push(1)", "ok").done(), "false"},
		// A sequential FIFO order on a stack is a violation, but the greedy
		// simulation cannot prove it: it punts to the general checker.
		{"fifo order punts", newHB().op(0, "Push(1)", "ok").op(0, "Push(2)", "ok").
			op(0, "Pop()", "1").op(0, "Pop()", "2").done(), "ambiguous"},
		{"concurrent pop overlap", newHB().op(0, "Push(1)", "ok").op(0, "Push(2)", "ok").
			call(0, "Pop()").call(1, "Pop()").ret(0, "1").ret(1, "2").done(), "true"},
		{"failed trypop is outside fragment", newHB().op(0, "TryPop()", "Fail").done(), "ambiguous"},
	}
	for _, tc := range cases {
		if got := verdict(t, KindStack, tc.h); got != tc.want {
			t.Errorf("%s: got %s, want %s\n%s", tc.name, got, tc.want, tc.h)
		}
	}
}

func TestSetDirected(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
		want string
	}{
		{"add then contains", newHB().op(0, "Add(1)", "true").op(0, "Contains(1)", "true").done(), "true"},
		{"contains before any add", newHB().op(0, "Contains(1)", "true").done(), "false"},
		{"absent after add without remove", newHB().op(0, "Add(1)", "true").
			op(0, "Contains(1)", "false").op(0, "Contains(1)", "true").done(), "false"},
		{"remove without add", newHB().op(0, "Remove(1)", "true").done(), "false"},
		{"full lifecycle", newHB().op(0, "Contains(1)", "false").op(0, "Add(1)", "true").
			op(0, "Contains(1)", "true").op(0, "Remove(1)", "true").op(0, "Contains(1)", "false").done(), "true"},
		{"concurrent add and contains", newHB().call(0, "Add(1)").call(1, "Contains(1)").
			ret(1, "true").ret(0, "true").done(), "true"},
		{"re-add is outside fragment", newHB().op(0, "Add(1)", "true").op(0, "Remove(1)", "true").
			op(0, "Add(1)", "true").done(), "ambiguous"},
		{"count is outside fragment", newHB().op(0, "Count()", "0").done(), "ambiguous"},
		{"independent values", newHB().op(0, "Add(1)", "true").op(1, "Add(2)", "true").
			op(0, "Contains(2)", "true").op(1, "Contains(1)", "true").done(), "true"},
	}
	for _, tc := range cases {
		if got := verdict(t, KindSet, tc.h); got != tc.want {
			t.Errorf("%s: got %s, want %s\n%s", tc.name, got, tc.want, tc.h)
		}
	}
}

func TestRegisterDirected(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
		want string
	}{
		{"write then read", newHB().op(0, "Write(5)", "ok").op(0, "Read()", "5").done(), "true"},
		{"initial value read", newHB().op(0, "Read()", "0").op(0, "Write(5)", "ok").op(0, "Read()", "5").done(), "true"},
		{"read of unwritten value", newHB().op(0, "Read()", "9").done(), "false"},
		{"read precedes write", newHB().op(0, "Read()", "5").op(0, "Write(5)", "ok").done(), "false"},
		{"stale read after overwrite", newHB().op(0, "Write(5)", "ok").op(0, "Write(6)", "ok").
			op(0, "Read()", "5").done(), "ambiguous"}, // greedy layout stuck: punt
		{"concurrent read during write", newHB().call(0, "Write(5)").call(1, "Read()").
			ret(1, "5").ret(0, "ok").done(), "true"},
		{"duplicate write is outside fragment", newHB().op(0, "Write(5)", "ok").op(0, "Write(5)", "ok").done(), "ambiguous"},
		{"write of initial value is outside fragment", newHB().op(0, "Write(0)", "ok").done(), "ambiguous"},
	}
	for _, tc := range cases {
		if got := verdict(t, KindRegister, tc.h); got != tc.want {
			t.Errorf("%s: got %s, want %s\n%s", tc.name, got, tc.want, tc.h)
		}
	}
}

func TestPQueueDirected(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
		want string
	}{
		{"min order", newHB().op(0, "Insert(2)", "ok").op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "1").op(0, "DeleteMin()", "2").done(), "true"},
		{"priority inversion", newHB().op(0, "Insert(2)", "ok").op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "2").op(0, "DeleteMin()", "1").done(), "false"},
		{"undeleted smaller rival", newHB().op(0, "Insert(1)", "ok").op(0, "Insert(2)", "ok").
			op(0, "DeleteMin()", "2").done(), "false"},
		{"delete of unknown value", newHB().op(0, "DeleteMin()", "3").done(), "false"},
		{"delete precedes insert", newHB().op(0, "DeleteMin()", "1").op(0, "Insert(1)", "ok").done(), "false"},
		{"concurrent insert race", newHB().call(0, "Insert(1)").call(1, "Insert(2)").
			ret(0, "ok").ret(1, "ok").op(0, "DeleteMin()", "1").op(0, "DeleteMin()", "2").done(), "true"},
		{"numeric order ten after two", newHB().op(0, "Insert(10)", "ok").op(0, "Insert(2)", "ok").
			op(0, "DeleteMin()", "2").op(0, "DeleteMin()", "10").done(), "true"},
		{"failed trydeletemin is outside fragment", newHB().op(0, "TryDeleteMin()", "Fail").done(), "ambiguous"},
	}
	for _, tc := range cases {
		if got := verdict(t, KindPQueue, tc.h); got != tc.want {
			t.Errorf("%s: got %s, want %s\n%s", tc.name, got, tc.want, tc.h)
		}
	}
}

// kindNames lists the model names with specialized monitors.
var kindNames = []string{"queue", "stack", "set", "register", "pqueue"}

func TestKindForMatchesBuiltins(t *testing.T) {
	for _, name := range kindNames {
		if _, ok := monitor.Builtin(name); !ok {
			t.Errorf("fast monitor %q has no builtin model", name)
		}
		k, ok := KindFor(name)
		if !ok || k.String() != name {
			t.Errorf("KindFor(%q) = %v, %v", name, k, ok)
		}
	}
	if _, ok := KindFor("counter"); ok {
		t.Error("counter should have no specialized monitor")
	}
}

// genHistory builds a random complete concurrent history over kind's
// vocabulary by simulating the sequential object with a linearization point
// chosen at either the call or the return of each operation — linearizable
// by construction. valBase offsets the distinct-value counter so windows of
// a stream share no values. With mutate, one return result is corrupted
// afterwards, which yields violating and out-of-fragment histories.
func genHistory(rng *rand.Rand, kindName string, nOps, nThreads, valBase int, mutate bool) *history.History {
	b := newHB()
	nextVal := valBase
	var seq []string // queue/stack/pqueue storage
	set := make(map[string]bool)
	reg := "0"

	apply := func(method, arg string) string {
		switch kindName {
		case "queue":
			if method == "Enqueue" {
				seq = append(seq, arg)
				return "ok"
			}
			if len(seq) == 0 {
				return "Fail"
			}
			v := seq[0]
			seq = seq[1:]
			return v
		case "stack":
			if method == "Push" {
				seq = append(seq, arg)
				return "ok"
			}
			if len(seq) == 0 {
				return "Fail"
			}
			v := seq[len(seq)-1]
			seq = seq[:len(seq)-1]
			return v
		case "pqueue":
			if method == "Insert" {
				seq = append(seq, arg)
				return "ok"
			}
			if len(seq) == 0 {
				return "Fail"
			}
			mi := 0
			for i, v := range seq {
				if valueLess(v, seq[mi]) {
					mi = i
				}
			}
			v := seq[mi]
			seq = append(seq[:mi], seq[mi+1:]...)
			return v
		case "set":
			switch method {
			case "Add":
				was := set[arg]
				set[arg] = true
				return fmt.Sprint(!was)
			case "Remove":
				was := set[arg]
				delete(set, arg)
				return fmt.Sprint(was)
			default: // Contains
				return fmt.Sprint(set[arg])
			}
		default: // register
			if method == "Write" {
				reg = arg
				return "ok"
			}
			return reg
		}
	}

	pick := func() (name, method, arg string) {
		switch kindName {
		case "queue":
			if rng.Intn(2) == 0 {
				nextVal++
				return fmt.Sprintf("Enqueue(%d)", nextVal), "Enqueue", fmt.Sprint(nextVal)
			}
			return "TryDequeue()", "TryDequeue", ""
		case "stack":
			if rng.Intn(2) == 0 {
				nextVal++
				return fmt.Sprintf("Push(%d)", nextVal), "Push", fmt.Sprint(nextVal)
			}
			return "TryPop()", "TryPop", ""
		case "pqueue":
			if rng.Intn(2) == 0 {
				nextVal++
				return fmt.Sprintf("Insert(%d)", nextVal), "Insert", fmt.Sprint(nextVal)
			}
			return "TryDeleteMin()", "TryDeleteMin", ""
		case "set":
			methods := []string{"Add", "Remove", "Contains"}
			m := methods[rng.Intn(len(methods))]
			v := fmt.Sprint(1 + rng.Intn(3))
			return fmt.Sprintf("%s(%s)", m, v), m, v
		default: // register
			if rng.Intn(3) == 0 {
				nextVal++
				return fmt.Sprintf("Write(%d)", nextVal), "Write", fmt.Sprint(nextVal)
			}
			return "Read()", "Read", ""
		}
	}

	type openOp struct {
		res   string
		atRet func() string
	}
	openBy := make(map[int]*openOp)
	started := 0
	for steps := 0; steps < 20*nOps+40 && (started < nOps || len(openBy) > 0); steps++ {
		t := rng.Intn(nThreads)
		if o := openBy[t]; o != nil {
			if started < nOps && rng.Intn(2) == 0 {
				continue // keep the call open a while longer
			}
			res := o.res
			if o.atRet != nil {
				res = o.atRet()
			}
			b.ret(t, res)
			delete(openBy, t)
			continue
		}
		if started >= nOps {
			continue
		}
		name, method, arg := pick()
		b.call(t, name)
		started++
		o := &openOp{}
		if rng.Intn(2) == 0 {
			o.res = apply(method, arg) // linearize at the call
		} else {
			m, a := method, arg
			o.atRet = func() string { return apply(m, a) } // linearize at the return
		}
		openBy[t] = o
	}
	// Drain any survivors of the step cap.
	for t, o := range openBy {
		res := o.res
		if o.atRet != nil {
			res = o.atRet()
		}
		b.ret(t, res)
		delete(openBy, t)
	}

	h := b.done()
	if mutate && len(h.Events) > 0 {
		var rets []int
		for i, ev := range h.Events {
			if ev.Kind == history.Return {
				rets = append(rets, i)
			}
		}
		if len(rets) > 0 {
			i := rets[rng.Intn(len(rets))]
			j := rets[rng.Intn(len(rets))]
			if rng.Intn(3) == 0 {
				h.Events[i].Result = fmt.Sprint(valBase + 7777) // value from nowhere
			} else {
				h.Events[i].Result, h.Events[j].Result = h.Events[j].Result, h.Events[i].Result
			}
		}
	}
	return h
}

// TestCrossCheckAgainstMonitor drives every specialized checker over random
// in-fragment and mutated histories and requires each definite verdict to
// match the general memoized search bit for bit; ambiguous histories are
// checked to still be decidable by the fallback.
func TestCrossCheckAgainstMonitor(t *testing.T) {
	for _, name := range kindNames {
		name := name
		t.Run(name, func(t *testing.T) {
			model, ok := monitor.Builtin(name)
			if !ok {
				t.Fatalf("no builtin model %q", name)
			}
			kind, _ := KindFor(name)
			stats := map[string]int{}
			for seed := int64(0); seed < 400; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nOps := 1 + rng.Intn(10)
				h := genHistory(rng, name, nOps, 1+rng.Intn(3), 0, seed%3 == 2)
				got, err := Check(kind, h)
				out, cerr := monitor.Check(model, h, monitor.Options{})
				if cerr != nil {
					t.Fatalf("seed %d: monitor.Check: %v\n%s", seed, cerr, h)
				}
				if errors.Is(err, ErrAmbiguous) {
					stats["ambiguous"]++
				} else if err != nil {
					t.Fatalf("seed %d: fast.Check: %v\n%s", seed, err, h)
				} else {
					stats[fmt.Sprint(got)]++
					if got != out.Linearizable {
						t.Fatalf("seed %d: fast=%v monitor=%v\n%s", seed, got, out.Linearizable, h)
					}
				}
			}
			if stats["true"] == 0 || stats["false"] == 0 {
				t.Fatalf("generator never exercised a definite verdict: %v", stats)
			}
			t.Logf("%s: %v", name, stats)
		})
	}
}
