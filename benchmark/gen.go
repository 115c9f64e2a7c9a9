package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/obsfile"
)

// Every generator takes its own *rand.Rand derived from the run seed and a
// fixed per-generator salt, so adding a workload never shifts the inputs of
// another.
func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// balancedTest fills a threads×ops matrix from the universe so that every
// invocation appears ⌊cells/|U|⌋ or ⌈cells/|U|⌉ times; the seed picks which
// invocations get the extra copy and where each one sits. RandomCheck's
// uniform draw gives tests whose schedule count varies by ±15% from seed to
// seed, which a 10% bound cannot tell from a regression; the balanced fill
// keeps the invocation mix fixed and varies only its arrangement.
func balancedTest(rng *rand.Rand, universe []core.Op, threads, ops int) *core.Test {
	cells := make([]core.Op, 0, threads*ops)
	for len(cells) < threads*ops {
		for _, i := range rng.Perm(len(universe)) {
			if len(cells) == threads*ops {
				break
			}
			cells = append(cells, universe[i])
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	m := &core.Test{}
	for t := 0; t < threads; t++ {
		m.Rows = append(m.Rows, cells[t*ops:(t+1)*ops])
	}
	return m
}

// step is one operation of a construction-order witness: the generator
// applied it to the true sequential state at its return event.
type step struct {
	Thread int
	Op     string
	Res    string
}

// trace is one generated history in wire form together with what the
// generator knows about it.
type trace struct {
	Events  []obsfile.TraceEvent
	Witness []step // linearization by construction (excludes the injected op)
	Ops     int
	Bad     bool // carries an injected violation
}

// jsonl renders the events in the JSONL trace format.
func jsonl(evs []obsfile.TraceEvent) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			panic(err) // TraceEvent holds only ints and strings
		}
	}
	return buf.Bytes()
}

// frames renders the events as LUB1 batch frames of the given size.
func frames(evs []obsfile.TraceEvent, batch int) ([]byte, error) {
	var buf bytes.Buffer
	fw := obsfile.NewFrameWriter(&buf)
	fw.BatchSize = batch
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// never is the value of every injected violation: no generator enqueues or
// adds it, so no linearization can produce it.
const never = "900000001"

// objGen drives one object (a queue or a set) through randomly overlapping
// operations on a fixed set of threads. An operation takes effect at its
// return event, so the operations in return order are a linearization.
type objGen struct {
	rng     *rand.Rand
	threads []int    // thread ids
	open    []string // open[i] is the op thread i is inside, "" when idle
	nOpen   int
	apply   func(op string) string // applies op to the true state, returns its result
	next    func() string          // picks the next operation to call
	part    string                 // partition key stamped on calls
}

// call opens an operation on a random idle thread; ret closes a random open
// one. Both append to evs; ret also appends to the witness.
func (g *objGen) call(evs *[]obsfile.TraceEvent) {
	i := g.pick(true)
	g.open[i] = g.next()
	g.nOpen++
	*evs = append(*evs, obsfile.TraceEvent{T: g.threads[i], K: "call", Op: g.open[i], P: g.part})
}

func (g *objGen) ret(evs *[]obsfile.TraceEvent, wit *[]step) {
	i := g.pick(false)
	op := g.open[i]
	res := g.apply(op)
	g.open[i] = ""
	g.nOpen--
	*evs = append(*evs, obsfile.TraceEvent{T: g.threads[i], K: "ret", Op: op, Res: res})
	*wit = append(*wit, step{Thread: g.threads[i], Op: op, Res: res})
}

// pick returns a random idle (or busy) thread slot; the caller guarantees
// one exists.
func (g *objGen) pick(idle bool) int {
	n := g.nOpen
	if idle {
		n = len(g.open) - g.nOpen
	}
	k := g.rng.Intn(n)
	for i, op := range g.open {
		if (op == "") == idle {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("objGen.pick: no such thread")
}

// queueState is a bounded FIFO queue of unique values.
type queueState struct {
	rng      *rand.Rand
	q        []string
	inFlight int // enqueues called but not yet returned
	nextVal  int
	maxDepth int
	enqPct   int
}

// next never lets depth exceed maxDepth. Uncapped, a queue under a 40/60
// enqueue/dequeue mix still random-walks to dozens of elements, and the
// checker's frontier (one state per feasible order of overlapping enqueues)
// and run time explode with it.
func (s *queueState) next() string {
	if s.rng.Intn(100) < s.enqPct && len(s.q)+s.inFlight < s.maxDepth {
		s.inFlight++
		s.nextVal++
		return "Enqueue(" + strconv.Itoa(s.nextVal) + ")"
	}
	return "TryDequeue()"
}

func (s *queueState) apply(op string) string {
	if op == "TryDequeue()" {
		if len(s.q) == 0 {
			return "Fail"
		}
		v := s.q[0]
		s.q = s.q[1:]
		return v
	}
	s.inFlight--
	s.q = append(s.q, op[len("Enqueue("):len(op)-1])
	return "ok"
}

func threadIDs(base, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

// genTrace drives g for the given number of operations. With inject, one
// extra operation three quarters of the way through returns a result no
// linearization can produce: badOp returning badRes. The place is fixed
// because the checker's work on a violating trace grows with the length of
// the prefix it has to exhaust: drawn anywhere in the second half, it moved
// the time of the trace by a factor of two from seed to seed.
func genTrace(g *objGen, ops int, inject bool, badOp, badRes string) *trace {
	tr := &trace{Bad: inject, Ops: ops}
	injectAt := -1
	if inject {
		injectAt = ops * 3 / 4
		tr.Ops++
	}
	started := 0
	for len(tr.Witness) < ops {
		switch {
		case started == injectAt && g.nOpen < len(g.open):
			t := g.threads[g.pick(true)]
			tr.Events = append(tr.Events,
				obsfile.TraceEvent{T: t, K: "call", Op: badOp},
				obsfile.TraceEvent{T: t, K: "ret", Op: badOp, Res: badRes})
			injectAt = -1
		case started < ops && g.nOpen < len(g.open) && (g.nOpen == 0 || g.rng.Intn(2) == 0):
			g.call(&tr.Events)
			started++
		default:
			g.ret(&tr.Events, &tr.Witness)
		}
	}
	return tr
}

// genQueueTrace builds one queue trace: enqueues of unique values while the
// depth is below 8, and TryDequeues that fail on an empty queue. The
// injected violation is a TryDequeue returning a value never enqueued.
func genQueueTrace(rng *rand.Rand, ops, threads int, inject bool) *trace {
	st := &queueState{rng: rng, maxDepth: 8, enqPct: 50}
	g := &objGen{rng: rng, threads: threadIDs(0, threads), open: make([]string, threads), apply: st.apply, next: st.next}
	return genTrace(g, ops, inject, "TryDequeue()", never)
}

// setState is a set over a small key range.
type setState struct {
	rng  *rand.Rand
	in   map[string]bool
	keys int
}

func (s *setState) next() string {
	k := strconv.Itoa(s.rng.Intn(s.keys))
	switch s.rng.Intn(3) {
	case 0:
		return "Add(" + k + ")"
	case 1:
		return "Remove(" + k + ")"
	}
	return "Contains(" + k + ")"
}

func (s *setState) apply(op string) string {
	i := strings.IndexByte(op, '(')
	k := op[i+1 : len(op)-1]
	switch op[:i] {
	case "Add":
		was := s.in[k]
		s.in[k] = true
		return strconv.FormatBool(!was)
	case "Remove":
		was := s.in[k]
		delete(s.in, k)
		return strconv.FormatBool(was)
	}
	return strconv.FormatBool(s.in[k])
}

// genSetTrace builds one set trace of Add/Remove/Contains over a small key
// range. The injected violation is a Remove that succeeds on a key never
// added.
func genSetTrace(rng *rand.Rand, ops, threads, keys int, inject bool) *trace {
	st := &setState{rng: rng, in: make(map[string]bool), keys: keys}
	g := &objGen{rng: rng, threads: threadIDs(0, threads), open: make([]string, threads), apply: st.apply, next: st.next}
	return genTrace(g, ops, inject, "Remove("+never+")", "true")
}

// session is one partition of the fresh stream.
type session struct {
	Key     string
	Witness []step
	// Closer is the index in the stream of the ret event of the session's
	// injected window-closing TryDequeue, or -1 while the session is open.
	Closer int
}

// freshStream is the serve-fresh input: sessions on a fixed number of
// concurrently active slots, every finished session ending in a window that
// cannot be linearized.
type freshStream struct {
	Events   []obsfile.TraceEvent
	Sessions []*session
	Ops      int
}

// slot is the generator's mirror of one serve partition: it counts open
// calls and completed operations exactly as serve's retirement rule does (a
// window retires when the partition is quiescent and holds at least
// WindowOps completed operations), so the generator knows which return
// event closes which window.
type slot struct {
	g         *objGen
	st        *queueState
	sess      *session
	windows   int // windows this session lasts
	retired   int // windows retired so far
	completed int // completed operations in the current window
}

// genFreshStream builds a stream of about the given number of operations.
// Each session lasts 2–5 windows; in its last window the generator stops
// calling one operation early, lets the partition go quiescent, and closes
// the window with a TryDequeue that returns a value never enqueued. Session
// keys are never reused; a slot's thread ids are.
func genFreshStream(rng *rand.Rand, ops, slots, threads, window int) *freshStream {
	fs := &freshStream{}
	nextKey := 0
	open := func(sl *slot, base int) {
		nextKey++
		sl.st = &queueState{rng: rng, maxDepth: 8, enqPct: 40}
		sl.sess = &session{Key: "s" + strconv.Itoa(nextKey), Closer: -1}
		sl.g = &objGen{rng: rng, threads: threadIDs(base, threads), open: make([]string, threads),
			apply: sl.st.apply, next: sl.st.next, part: sl.sess.Key}
		sl.windows = 2 + rng.Intn(4)
		sl.retired, sl.completed = 0, 0
		fs.Sessions = append(fs.Sessions, sl.sess)
	}
	sls := make([]*slot, slots)
	for i := range sls {
		sls[i] = &slot{}
		open(sls[i], i*threads)
	}
	for fs.Ops < ops {
		i := rng.Intn(slots)
		sl := sls[i]
		g := sl.g
		last := sl.retired == sl.windows-1
		target := window
		if last {
			target = window - 1 // leave room for the closer
		}
		switch {
		case last && g.nOpen == 0 && sl.completed == target:
			fs.Events = append(fs.Events,
				obsfile.TraceEvent{T: g.threads[0], K: "call", Op: "TryDequeue()", P: sl.sess.Key},
				obsfile.TraceEvent{T: g.threads[0], K: "ret", Op: "TryDequeue()", Res: never})
			sl.sess.Closer = len(fs.Events) - 1
			fs.Ops++
			open(sl, i*threads)
		case sl.completed+g.nOpen < target && g.nOpen < threads && (g.nOpen == 0 || rng.Intn(2) == 0):
			g.call(&fs.Events)
		default:
			g.ret(&fs.Events, &sl.sess.Witness)
			fs.Ops++
			sl.completed++
			if !last && g.nOpen == 0 && sl.completed >= window {
				sl.retired++
				sl.completed = 0
			}
		}
	}
	// End quiescent: return whatever is still open.
	for _, sl := range sls {
		for sl.g.nOpen > 0 {
			sl.g.ret(&fs.Events, &sl.sess.Witness)
			fs.Ops++
		}
	}
	return fs
}

// replayCorpus spreads explorer-harvested complete histories round-robin
// over the partitions until the target number of operations is reached, the
// way internal/bench builds its serve load: partition p owns the thread ids
// [p*stride, (p+1)*stride).
func replayCorpus(hists []*history.History, partitions int, ops int) ([]obsfile.TraceEvent, int) {
	stride := 0
	for _, h := range hists {
		for _, e := range h.Events {
			if e.Thread >= stride {
				stride = e.Thread + 1
			}
		}
	}
	var evs []obsfile.TraceEvent
	issued := 0
	for i := 0; issued < ops; i++ {
		h := hists[i%len(hists)]
		p := i % partitions
		key := fmt.Sprintf("p%02d", p)
		for _, e := range h.Events {
			ev := obsfile.TraceEvent{T: p*stride + e.Thread, Op: e.Op}
			if e.Kind == history.Call {
				ev.K, ev.P = "call", key
			} else {
				ev.K, ev.Res = "ret", e.Result
				issued++
			}
			evs = append(evs, ev)
		}
	}
	return evs, issued
}
