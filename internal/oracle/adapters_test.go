package oracle

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
	"lineup/internal/obsfile"
	"lineup/internal/sched"
	"lineup/internal/subjects"
)

// hostileValues are arguments and results chosen to break a form that joins
// strings with a separator or reads them back up to a quote: the empty
// string, separators, quotes and braces, items that contain one another (the
// comma collision of [a, a,a] and [a,a, a]), a result that spells a further
// step of a joined "name=result;" key, a multi-byte rune, and an item longer
// than a one-byte length prefix.
var hostileValues = []string{"", ",", ";", "=", `"`, `\`, "{", "}", "a", "a,a", "k=v", "0;b()=1", "é", strings.Repeat("x", 200)}

func pick(rng *rand.Rand, from ...string) string { return from[rng.Intn(len(from))] }

// target is a model with a generator of its operations, whose arguments v
// draws (the pipeline takes ints).
type target struct {
	m  *monitor.Model
	op func(rng *rand.Rand, v func() string) string
}

var targets = []target{
	{monitor.QueueModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Enqueue("+v()+")", "TryDequeue()", "Dequeue()", "Count()")
	}},
	{monitor.StackModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Push("+v()+")", "TryPop()", "Pop()", "TryPeek()")
	}},
	{monitor.SetModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Add", "Remove", "Contains") + "(" + v() + ")"
	}},
	{monitor.PQueueModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Insert("+v()+")", "TryDeleteMin()", "DeleteMin()")
	}},
	{monitor.RegisterModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Write("+v()+")", "Read()", "CAS("+v()+","+v()+")")
	}},
	{subjects.MapModel(), func(rng *rand.Rand, v func() string) string {
		k := v()
		return pick(rng, "Put("+k+","+v()+")", "Get("+k+")", "Delete("+k+")", "Len()")
	}},
	{subjects.PipelineModel(), func(rng *rand.Rand, v func() string) string {
		return pick(rng, "Send("+pick(rng, "1", "2")+")", "TrySend(3)", "Process()", "TryRecv()")
	}},
}

// hostileHistory is the one history generator. It runs nOps operations of tg
// on three threads against a live model, returning each when the model lets
// it (one that blocks stays open and may end pending), so the return order is
// a witness and the history quiesces now and then. The arguments come from a
// pool of two or three values, each a hostile value or two earlier ones joined
// around a third, so that values which a separator confuses ([a, a,a] and
// [a,a, a]) meet in one history. A third of the histories then get one result
// replaced by a hostile value; up to two trailing events are dropped, and half
// are marked stuck.
func hostileHistory(rng *rand.Rand, tg target, nOps int) *history.History {
	pool := []string{pick(rng, hostileValues...)}
	for n := 2 + rng.Intn(2); len(pool) < n; {
		if rng.Intn(2) == 0 {
			pool = append(pool, pick(rng, hostileValues...))
		} else {
			pool = append(pool, pick(rng, pool...)+pick(rng, hostileValues...)+pick(rng, pool...))
		}
	}
	v := func() string { return pick(rng, pool...) }
	h := &history.History{}
	state := tg.m.Init()
	open := map[int]history.Event{}
	for steps, issued := 0, 0; steps < 100 && (issued < nOps || len(open) > 0); steps++ {
		th := rng.Intn(3)
		if call, busy := open[th]; busy && rng.Intn(2) == 0 {
			if res, after, err := tg.m.Step(state, call.Op); err == nil {
				state = after
				call.Kind, call.Result = history.Return, res
				h.Events = append(h.Events, call)
				delete(open, th)
			}
		} else if !busy && issued < nOps {
			call := history.Event{Thread: th, Kind: history.Call, Op: tg.op(rng, v), Index: issued}
			h.Events = append(h.Events, call)
			open[th] = call
			issued++
		}
	}
	if i := rng.Intn(len(h.Events)); rng.Intn(3) == 0 && h.Events[i].Kind == history.Return {
		h.Events[i].Result = pick(rng, append(hostileValues, "ok", "Fail", "true", "false")...)
	}
	h.Events = h.Events[:len(h.Events)-rng.Intn(3)]
	h.Stuck = rng.Intn(2) == 0
	return h
}

// specProgram decodes a byte program into serial histories to store and
// concurrent histories to query. The alphabet is tiny on purpose — a() and
// b() returning 0, 1 or ok — so that duplicates, stuck tails and conflicting
// continuations all arise within a few bytes; an operation byte of 192 or
// more takes its result from hostileValues, indexed by the next byte.
func specProgram(data []byte) (store []*history.SerialHistory, queries []*history.History) {
	if len(data) > 192 {
		data = data[:192] // the reference is exponential, and the fuzzer minimizes by re-running
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	names, results := []string{"a()", "b()"}, []string{"0", "1", "ok"}
	result := func(b, div int) string {
		if b >= 192 {
			return hostileValues[next()%len(hostileValues)]
		}
		return results[b/div%3]
	}
	for len(data) > 0 {
		head := next()
		n := head >> 1 % 6
		if head&1 == 0 {
			s := &history.SerialHistory{}
			for i := 0; i < n; i++ {
				b := next()
				s.Ops = append(s.Ops, history.SerialOp{Thread: b % 3, Name: names[b/3%2], Result: result(b, 6)})
			}
			if b := next(); b&1 == 1 {
				s.Pending = &history.SerialPending{Thread: b >> 1 % 3, Name: names[b>>3%2]}
			}
			store = append(store, s)
			continue
		}
		// A concurrent history: each byte calls on an idle thread or returns
		// the thread's operation in flight; what is in flight at the end stays
		// pending.
		h := &history.History{}
		inFlight := map[int]history.Event{}
		for i := 0; i < 2*n; i++ {
			b := next()
			th := b % 3
			if call, busy := inFlight[th]; busy {
				h.Events = append(h.Events, history.Event{Thread: th, Kind: history.Return, Op: call.Op, Result: result(b, 3), Index: call.Index})
				delete(inFlight, th)
			} else {
				e := history.Event{Thread: th, Kind: history.Call, Op: names[b/3%2], Index: i}
				h.Events = append(h.Events, e)
				inFlight[th] = e
			}
		}
		h.Stuck = len(inFlight) > 0
		queries = append(queries, h)
	}
	return store, queries
}

// asHistory is the serial execution s records, as an event sequence.
func asHistory(s *history.SerialHistory) *history.History {
	h := &history.History{Stuck: s.Stuck()}
	for i, op := range s.Ops {
		h.Events = append(h.Events,
			history.Event{Thread: op.Thread, Kind: history.Call, Op: op.Name, Index: i},
			history.Event{Thread: op.Thread, Kind: history.Return, Op: op.Name, Result: op.Result, Index: i})
	}
	if s.Pending != nil {
		h.Events = append(h.Events, history.Event{Thread: s.Pending.Thread, Kind: history.Call, Op: s.Pending.Name, Index: len(s.Ops)})
	}
	return h
}

// groupKeys renders a spec's groups, histories in candidate order.
func groupKeys(sp *history.Spec) [][]string {
	var out [][]string
	for _, hs := range sp.Groups() {
		keys := make([]string, len(hs))
		for i, s := range hs {
			keys[i] = key(steps(s))
		}
		out = append(out, keys)
	}
	return out
}

// roundTrip is the adapter of a spec's two written forms, Export into
// ImportSpec (how a coordinator ships a spec to workers) and an observation
// file through Write, Parse and ToSpec (what `lineup check -obs` judges against):
// each must give back the same groups in the same order, the same candidates
// in the same order, the same counts and the same determinism verdict.
func roundTrip(t *testing.T, sp *history.Spec) {
	t.Helper()
	var file bytes.Buffer
	if err := obsfile.Write(&file, sp); err != nil {
		t.Fatalf("obsfile.Write: %v", err)
	}
	parsed, err := obsfile.Parse(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatalf("obsfile.Parse: %v\n%s", err, file.String())
	}
	want := groupKeys(sp)
	_, bad := sp.Nondeterministic()
	for form, back := range map[string]*history.Spec{"ImportSpec(Export())": history.ImportSpec(sp.Export()), "the observation file": parsed.ToSpec()} {
		if got := groupKeys(back); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed the groups or their candidates:\n got  %q\n want %q\n%s", form, got, want, file.String())
		}
		if _, b := back.Nondeterministic(); b != bad || back.NumFull() != sp.NumFull() || back.NumStuck() != sp.NumStuck() {
			t.Fatalf("%s changed the determinism verdict or the counts", form)
		}
	}
}

// modes are monitor.Mode's two readings of pending operations: by the
// history's stuck marker, and by Definition 1.
var modes = []monitor.Mode{monitor.ModeAuto, monitor.ModeClassic}

// markStuck is h with the stuck marker set, which ModeAuto reads by
// Definition 3 whatever h's own marker said.
func markStuck(h *history.History) *history.History {
	marked := *h
	marked.Stuck = true
	return &marked
}

// lookup is spec lookup's verdict on h, read the way mode reads pending
// operations. Spec lookup answers full and stuck histories only: answered is
// false where mode reads h by Definition 1, which only the monitor decides.
func lookup(sp *history.Spec, h *history.History, mode monitor.Mode) (ok, answered bool) {
	pending := h.Pending()
	switch {
	case len(pending) == 0:
		_, ok := sp.WitnessFull(h)
		return ok, true
	case mode == monitor.ModeClassic || mode == monitor.ModeAuto && !h.Stuck:
		return false, false
	}
	for _, e := range pending {
		if _, ok := sp.WitnessStuck(h, e); !ok {
			return false, true
		}
	}
	return true, true
}

// incremental is Incremental's verdict on h, a window retired at every
// quiescent point cut selects and Finish run on the rest.
func incremental(m *monitor.Model, h *history.History, opts monitor.Options, cut func() bool) (bool, error) {
	inc, err := monitor.NewIncremental(m, opts)
	if err != nil {
		return false, err
	}
	var window []history.Event
	open := 0
	for _, e := range h.Events {
		window = append(window, e)
		if e.Kind == history.Call {
			open++
		} else {
			open--
		}
		if open == 0 && cut() {
			if _, err := inc.ExtendComplete(&history.History{Events: window}); err != nil {
				return false, err
			}
			window = window[:0]
		}
	}
	out, err := inc.Finish(&history.History{Events: window, Stuck: h.Stuck})
	if err != nil {
		return false, err
	}
	return out.Linearizable, nil
}

// checkModel is the adapter of every procedure that judges one history
// against a model. In both modes: WGL with the memo on and off and without
// partitioning, and Incremental at the quiescent cuts the bits of cuts
// select; where the mode reads h by Definition 3, lookup in the spec m
// synthesizes for h's per-thread sequences. A history with pending
// operations and no stuck marker is judged again marked stuck, so that
// Definition 3 is held to the definition on it too.
// Then the definite answers of m's fast monitor, and roundTrip of that spec.
func checkModel(t *testing.T, m *monitor.Model, h *history.History, cuts uint64) {
	t.Helper()
	fail := func(h *history.History, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format+"\nhistory (stuck=%v):\n%s", append(append([]any{m.Name}, args...), h.Stuck, h)...)
	}
	spec, err := modelSpec(m, h)
	if err != nil {
		fail(h, "synthesizing the spec: %v", err)
	}
	readings := []*history.History{h}
	if !h.Stuck && len(h.Pending()) > 0 {
		readings = append(readings, markStuck(h))
	}
	for _, h := range readings {
		for _, mode := range modes {
			want, err := linearizable(m, h, mode)
			if err != nil {
				fail(h, "definition: %v", err)
			}
			for _, opts := range []monitor.Options{{Mode: mode}, {Mode: mode, NoPartition: true}} {
				if out, err := monitor.Check(m, h, opts); err != nil || out.Linearizable != want {
					fail(h, "%+v: Check says %v (err %v), the definition %v", opts, out != nil && out.Linearizable, err, want)
				}
			}
			point := 0
			if got, err := incremental(m, h, monitor.Options{Mode: mode}, func() bool { point++; return cuts>>(point%64)&1 == 1 }); err != nil || got != want {
				fail(h, "mode %d: Incremental says %v (err %v), the definition %v", mode, got, err, want)
			}
			if got, answered := lookup(spec, h, mode); answered && got != want {
				fail(h, "mode %d: spec lookup says %v, the definition %v", mode, got, want)
			}
		}
	}
	want, _ := linearizable(m, h, monitor.ModeAuto)
	if kind, ok := fast.KindFor(m.Name); ok {
		if got, err := fast.Check(kind, h); err == nil && got != want || err != nil && !errors.Is(err, fast.ErrAmbiguous) {
			fail(h, "fast monitor says %v (err %v), the definition %v", got, err, want)
		}
	}
	roundTrip(t, spec)
}

// checkTrie is the adapter of the spec trie on an arbitrary store. After every
// Add its determinism verdict is line 4 of Fig. 5's; its counts are the
// distinct stored histories; on every query, and on every stored history
// queried as the serial history it is, WitnessFull and WitnessStuck answer as
// a search among the stored histories of the query's orders that respect <H;
// and the spec passes roundTrip.
func checkTrie(t *testing.T, store []*history.SerialHistory, queries []*history.History) {
	t.Helper()
	sp, ref := history.NewSpec(), newSerialSet()
	for _, s := range store {
		sp.Add(s)
		ref.add(s)
		if _, bad := sp.Nondeterministic(); bad != ref.nondet {
			t.Fatalf("after adding %s: nondeterministic = %v, the definition %v", s, bad, ref.nondet)
		}
	}
	if sp.NumFull() != ref.full || sp.NumStuck() != ref.stuck {
		t.Fatalf("spec holds %d full / %d stuck, the store %d / %d distinct", sp.NumFull(), sp.NumStuck(), ref.full, ref.stuck)
	}
	for _, s := range ref.hists {
		queries = append(queries, asHistory(s))
	}
	for _, h := range queries {
		ops := h.Ops()
		if !h.Stuck {
			if _, got := sp.WitnessFull(h); got != ref.witness(ops, realTime, nil) {
				t.Fatalf("WitnessFull = %v, the definition %v, on\n%s", got, !got, h)
			}
			continue
		}
		var done []history.Op
		for _, op := range ops {
			if op.Complete {
				done = append(done, op)
			}
		}
		for _, e := range h.Pending() {
			if _, got := sp.WitnessStuck(h, e); got != ref.witness(done, realTime, &e) {
				t.Fatalf("WitnessStuck(%s) = %v, the definition %v, on\n%s", e, got, !got, h)
			}
		}
	}
	roundTrip(t, sp)
}

// fixedOrder is a controller that schedules the threads in a given order.
type fixedOrder []sched.ThreadID

func (c *fixedOrder) Pick(sched.ThreadID, bool, []sched.ThreadID) sched.ThreadID {
	id := (*c)[0]
	*c = (*c)[1:]
	return id
}

// serialExecution runs sub on m once, serially, with its operations in the
// given order of rows; the decisions stop once one thread is left.
func serialExecution(t *testing.T, sub *core.Subject, m *core.Test, rows []int) *history.SerialHistory {
	t.Helper()
	var obj any
	run := func(ops []core.Op) func(*sched.Thread) {
		return func(th *sched.Thread) {
			for _, op := range ops {
				th.OpStart(op.Name())
				th.OpEnd(op.Name(), op.Run(th, obj))
			}
		}
	}
	prog := sched.Program{Setup: func(th *sched.Thread) {
		obj = sub.New(th)
		for _, op := range m.Init {
			op.Run(th, obj)
		}
	}}
	for _, row := range m.Rows {
		prog.Threads = append(prog.Threads, run(row))
	}
	if len(m.Final) > 0 {
		prog.Teardown = run(m.Final)
	}
	ctrl := make(fixedOrder, len(rows))
	for i, r := range rows {
		ctrl[i] = sched.ThreadID(r + 1) // the setup thread is 0
	}
	out := sched.NewScheduler(sched.Config{Serial: true}, &ctrl).Run(prog)
	if out.Err != nil {
		t.Fatalf("serial execution %v: %v", rows, out.Err)
	}
	h, err := core.OutcomeHistory(out)
	if err != nil {
		t.Fatalf("serial execution %v: %v", rows, err)
	}
	return history.ToSerial(h)
}

// serialSpec is what phase 1 must synthesize for sub on m: the serial history
// of every serial order of m's rows, each run once.
func serialSpec(t *testing.T, sub *core.Subject, m *core.Test) *serialSet {
	t.Helper()
	var items []history.Op // one per operation of the rows, in thread-major order
	for r, row := range m.Rows {
		for range row {
			items = append(items, history.Op{Thread: r, CallPos: len(items)})
		}
	}
	ref := newSerialSet()
	orders(len(items), func(i, j int) bool { return programOrder(items[i], items[j]) }, func(order []int) bool {
		rows := make([]int, len(order))
		for k, i := range order {
			rows[k] = items[i].Thread
		}
		ref.add(serialExecution(t, sub, m, rows))
		return false
	})
	return ref
}

// checkPhase1 is the adapter of phase 1 on a real subject: the spec
// core.SynthesizeSpec builds for m holds exactly serialSpec's histories, with
// their counts and determinism verdict, and passes roundTrip. It returns the
// spec.
func checkPhase1(t *testing.T, sub *core.Subject, m *core.Test) *history.Spec {
	t.Helper()
	spec, p1, err := core.SynthesizeSpec(sub, m, core.Options{})
	if err != nil {
		t.Fatalf("phase 1 on\n%s: %v", m, err)
	}
	ref, got := serialSpec(t, sub, m), newSerialSet()
	for _, s := range spec.Export() {
		got.add(s)
	}
	if !reflect.DeepEqual(got.keys, ref.keys) || spec.NumFull() != ref.full || spec.NumStuck() != ref.stuck || p1.Histories != ref.full || p1.Stuck != ref.stuck {
		t.Fatalf("phase 1 holds %d full + %d stuck histories (%d distinct), the serial orders give %d + %d, on\n%s",
			spec.NumFull(), spec.NumStuck(), len(got.keys), ref.full, ref.stuck, m)
	}
	if _, bad := spec.Nondeterministic(); bad != ref.nondet {
		t.Fatalf("nondeterministic = %v, the definition %v, on\n%s", bad, ref.nondet, m)
	}
	roundTrip(t, spec)
	return spec
}

// initialized is m started from the state a test's unobserved init
// invocations leave.
func initialized(t *testing.T, m *monitor.Model, init []core.Op) *monitor.Model {
	c := *m
	c.Init = func() string {
		st := m.Init()
		for _, op := range init {
			_, next, err := m.Step(st, op.Name())
			if err != nil {
				t.Fatalf("model %s cannot replay init op %s: %v", m.Name, op.Name(), err)
			}
			st = next
		}
		return st
	}
	return &c
}

// checkExplored is the adapter of the histories the explorer emits: each
// distinct history of sub on m is judged by the definition against model and
// by WGL — a stuck one in both readings of its pending operations — and, in
// Definition 3's reading, by lookup in spec (sub's phase-1 spec for m); they
// must agree. It returns the number of histories.
func checkExplored(t *testing.T, sub *core.Subject, m *core.Test, model *monitor.Model, spec *history.Spec, opts core.Options) int {
	t.Helper()
	model = initialized(t, model, m.Init)
	n := 0
	err := core.ExploreHistories(sub, m, opts, func(h *history.History) bool {
		n++
		readings := []monitor.Mode{monitor.ModeAuto}
		if h.Stuck {
			readings = modes
		}
		for _, mode := range readings {
			want, err := linearizable(model, h, mode)
			if err != nil {
				t.Fatalf("definition: %v\nhistory:\n%s", err, h)
			}
			out, err := monitor.Check(model, h, monitor.Options{Mode: mode})
			if err != nil {
				t.Fatalf("monitor.Check: %v\nhistory:\n%s", err, h)
			}
			if got, answered := lookup(spec, h, mode); answered && got != want || out.Linearizable != want {
				t.Fatalf("%s mode %d: spec lookup %v, WGL %v, the definition %v on\n%s", sub.Name, mode, got, out.Linearizable, want, h)
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("exploring %s: %v", sub.Name, err)
	}
	return n
}
