// Package sched implements a deterministic cooperative scheduler together
// with a stateless model-checking explorer. It is the substitute for the
// CHESS model checker that the Line-Up paper builds on: it can enumerate all
// thread schedules of a small concurrent test program, replay any schedule
// deterministically, restrict exploration to serial schedules (no two
// operations overlap), bound the number of preemptions, and detect stuck
// executions (deadlock, livelock, and diverging loops).
//
// Programs under test do not use Go's runtime concurrency directly. Instead,
// each logical thread runs on a goroutine that is gated by the scheduler so that
// exactly one logical thread — the baton holder — executes at any moment (an
// exploration keeps those goroutines from one execution to the next, see pool).
// Scheduling decisions are taken at instrumented operations (see package
// vsync), on the running thread's own goroutine: it computes the enabled set
// and asks the Controller; if the decision continues it, it simply returns,
// and only a real context switch resumes the chosen thread and parks the
// caller. The goroutine that called Run starts each thread group and sleeps
// until the group is over. Because only one goroutine runs at a time and
// every source of nondeterminism is a scheduling decision, a recorded
// sequence of decisions replays an execution exactly.
//
// Subject code that escapes the instrumentation — blocking on an
// uninstrumented primitive, spinning without yielding, or spawning raw
// goroutines — would hang or poison the whole checker. Config.Watchdog arms a
// wall-clock watchdog that detects a non-cooperative execution, abandons its
// goroutines, and reports a structured hung outcome; Config.DetectLeaks
// reports goroutines the subject spawned outside the scheduler. See
// Outcome.FailureKind for the containment taxonomy.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ThreadID identifies a logical thread within one execution. Thread IDs are
// dense and assigned in spawn order: the setup pseudo-thread (if any) gets
// the first ID, then the test threads in row order, then the teardown
// pseudo-thread.
type ThreadID int

// NoThread is the ThreadID used when no thread is current (the first
// scheduling decision of an execution).
const NoThread ThreadID = -1

// PointKind classifies an instrumented operation. The scheduler consults its
// granularity setting to decide whether a point of a given kind is a
// scheduling decision.
type PointKind int

const (
	// PointRead is a plain (non-synchronizing) shared memory read.
	PointRead PointKind = iota
	// PointWrite is a plain shared memory write.
	PointWrite
	// PointAtomic is a synchronizing (volatile/interlocked) access.
	PointAtomic
	// PointLock is a lock acquire or try-acquire.
	PointLock
	// PointUnlock is a lock release.
	PointUnlock
	// PointOpStart precedes the invocation of a test operation.
	PointOpStart
	// PointOpEnd precedes the return of a test operation.
	PointOpEnd
	// PointYield is an explicit spin yield (fairness hint).
	PointYield
)

// Granularity selects which point kinds are scheduling decisions in
// concurrent mode. Serial mode ignores granularity: decisions are taken only
// between operations there (see Config.Serial).
type Granularity int

const (
	// GranAll preempts at every instrumented point, including plain data
	// accesses. This is the default; it exposes bugs such as the unprotected
	// counter increment of the paper's Section 2.2.
	GranAll Granularity = iota
	// GranSync preempts only at synchronizing points (atomics, locks, and
	// operation boundaries), mirroring the CHESS default. Plain data accesses
	// execute atomically with the preceding point; data races are still
	// recorded in the trace and can be found by the race detector.
	GranSync
)

func (g Granularity) String() string {
	if g == GranSync {
		return "sync"
	}
	return "all"
}

// MarshalText and UnmarshalText give a Granularity its one text form ("all",
// "sync"; empty reads as all).
func (g Granularity) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

func (g *Granularity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "all", "":
		*g = GranAll
	case "sync":
		*g = GranSync
	default:
		return fmt.Errorf("sched: unknown granularity %q (want all or sync)", b)
	}
	return nil
}

func (g Granularity) includes(k PointKind) bool {
	switch k {
	case PointRead, PointWrite:
		return g == GranAll
	default:
		return true
	}
}

type threadState int32

const (
	stateRunnable threadState = iota
	stateBlocked
	stateFinished
	stateDiverged // exceeded the per-operation step budget (livelock/divergence)
)

// Thread is the handle a logical thread uses to interact with the scheduler.
// Every instrumented operation takes the current *Thread as an argument;
// implementations under test must thread it through their methods.
//
// state and killed are atomic because the watchdog abandonment path reads and
// writes them from the Run goroutine while a non-cooperative thread goroutine
// may still be executing; everywhere else the scheduler baton already orders
// accesses: a thread touches scheduler state only while it holds the baton,
// and the send on the next holder's resume channel is the happens-before edge
// that passes it on.
type Thread struct {
	id        ThreadID
	name      string
	sch       *Scheduler
	resume    chan struct{}
	state     atomic.Int32
	killed    atomic.Bool
	stepsInOp int
	curOp     int // global index of the operation currently executing, -1 outside
}

func (t *Thread) getState() threadState   { return threadState(t.state.Load()) }
func (t *Thread) setState(st threadState) { t.state.Store(int32(st)) }

// ID returns the thread's identifier within the current execution.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's display name ("A", "B", ...).
func (t *Thread) Name() string { return t.name }

// killSentinel is panicked inside a thread goroutine when the scheduler
// terminates an unfinished execution; the thread wrapper recovers it.
type killSentinel struct{}

// divergeSentinel is panicked when a thread exceeds its step budget inside a
// single operation (a diverging loop or livelock).
type divergeSentinel struct{}

// Controller supplies scheduling decisions. Pick is called at every decision
// point with the previously running thread (cur, which may be NoThread),
// whether cur is among the enabled threads, and the enabled set in ascending
// ID order. It must return one of the enabled threads. Pick is only called
// when there are at least two enabled threads; singleton choices are taken
// implicitly.
//
// Pick runs on the goroutine of whichever thread holds the baton (the first
// decision of a group on the goroutine that called Run), so consecutive calls
// may come from different goroutines. They are still strictly sequential and
// ordered by happens-before: a controller needs no synchronization of its
// own. A panic in Pick is a framework fault, not a subject failure: Run
// re-panics with the same value on its caller's goroutine.
type Controller interface {
	Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID
}

// Config controls a single execution.
type Config struct {
	// Serial restricts scheduling decisions to the boundaries between
	// operations and declares the execution stuck as soon as the sole running
	// operation blocks or diverges. This is the phase-1 mode of the Line-Up
	// algorithm. The code a thread runs before its first OpStart is part of
	// thread start: it runs for every thread of a group, in thread order,
	// before the first decision. That is sound because such code records no
	// event and a serial history is determined by the order of its
	// operations; it makes exhaustive serial exploration visit every serial
	// history, full or stuck, exactly once (1680 executions for a 3x3 test).
	Serial bool
	// Granularity selects the preemption granularity in concurrent mode.
	Granularity Granularity
	// RecordTrace enables memory-access tracing for the race and atomicity
	// checkers.
	RecordTrace bool
	// MaxOpSteps bounds the instrumented steps a single operation may take
	// before it is declared diverging. Zero means the default (100000).
	MaxOpSteps int
	// Watchdog, when positive, bounds the wall-clock time the running thread
	// may take to reach its next scheduling point. Run samples a progress
	// counter once per interval; when a full interval passes without any
	// thread reaching a scheduling point (so a hang is detected between one
	// and two intervals after the last one) the execution is declared hung
	// (the thread blocked on an uninstrumented primitive or spins without
	// yielding), its goroutines are abandoned, and the outcome reports Hung.
	// Zero disables the watchdog: a non-cooperative subject then hangs Run
	// forever.
	Watchdog time.Duration
	// AbandonGrace bounds how long an abandoned execution waits for its
	// threads to unwind cooperatively before declaring them leaked. Zero
	// means the default (50ms).
	AbandonGrace time.Duration
	// DetectLeaks compares the process goroutine count before and after the
	// execution and reports subject goroutines that survived it (raw `go`
	// statements escaping the scheduler) in Outcome.LeakedGoroutines. It is
	// only meaningful when no other code spawns goroutines concurrently, so
	// the parallel explorer forces it off.
	DetectLeaks bool
	// TrackFootprints accumulates a per-decision-window Footprint (shared
	// locations touched, history events recorded) and delivers it to the
	// controller — if it implements the footprint observer hook — immediately
	// before every Pick and once more at the end of the execution. The
	// explorer enables this when sleep-set reduction is on; it is independent
	// of RecordTrace.
	TrackFootprints bool
	// TrackCoverage accumulates the set of distinct (MemKind, location)
	// pairs the execution touches and exports it on Outcome.Coverage. It is
	// the per-execution coverage signal of coverage-guided test generation
	// (core.Generate) and is independent of both RecordTrace and
	// TrackFootprints — footprints are per-decision-window and consumed by
	// reduction, coverage is per-execution and consumed by the caller.
	TrackCoverage bool
	// Prealloc sizes the execution's event, schedule, and trace buffers up
	// front. Explorations set it from the previous execution's outcome so
	// that steady-state executions allocate each buffer once.
	Prealloc CapHint
}

// CapHint carries slice capacity hints for one execution's recording buffers.
type CapHint struct {
	Events   int
	Schedule int
	Trace    int
}

func (c Config) maxOpSteps() int {
	if c.MaxOpSteps <= 0 {
		return 100000
	}
	return c.MaxOpSteps
}

func (c Config) abandonGrace() time.Duration {
	if c.AbandonGrace <= 0 {
		return 50 * time.Millisecond
	}
	return c.AbandonGrace
}

// Program is the unit of execution: an optional single-threaded setup
// function (typically the object constructor plus initial operations), the
// concurrent test threads, and an optional teardown function that runs as an
// extra thread after every test thread has finished. Teardown does not run if
// the execution gets stuck.
type Program struct {
	Setup    func(t *Thread)
	Threads  []func(t *Thread)
	Teardown func(t *Thread)
}

// EventKind distinguishes call and return events of a history.
type EventKind int

const (
	// EvCall marks the invocation of an operation.
	EvCall EventKind = iota
	// EvReturn marks the response of an operation.
	EvReturn
)

// OpEvent is a call or return event recorded during an execution. Thread is
// the logical thread, Op the operation's display name (method plus
// arguments), Result the canonical result string (returns only), and OpIndex
// a per-execution dense identifier that pairs calls with returns.
type OpEvent struct {
	Thread  ThreadID
	Kind    EventKind
	Op      string
	Result  string
	OpIndex int
}

// MemKind classifies trace events for the race and atomicity checkers.
type MemKind int

const (
	// MemRead is a plain shared read.
	MemRead MemKind = iota
	// MemWrite is a plain shared write.
	MemWrite
	// MemAtomicLoad is a synchronizing read (volatile load).
	MemAtomicLoad
	// MemAtomicStore is a synchronizing write (volatile store).
	MemAtomicStore
	// MemAtomicRMW is a synchronizing read-modify-write (CAS, exchange, add).
	MemAtomicRMW
	// MemAcquire is a lock acquisition.
	MemAcquire
	// MemRelease is a lock release.
	MemRelease
)

// MemEvent is one entry of the shared-memory access trace.
type MemEvent struct {
	Thread ThreadID
	Kind   MemKind
	Loc    int    // location identifier (dense, per execution)
	Name   string // location display name
	Op     int    // global operation index the access belongs to, -1 outside ops
}

// Outcome summarizes one execution.
type Outcome struct {
	// Stuck reports whether the execution could not complete: at the end no
	// thread was runnable but not all threads had finished (deadlock), or all
	// remaining threads had diverged (livelock/diverging loop).
	Stuck bool
	// Events is the recorded history of call/return events.
	Events []OpEvent
	// Trace is the shared-memory access trace (nil unless Config.RecordTrace).
	Trace []MemEvent
	// Decisions is the number of scheduling decisions taken.
	Decisions int
	// Schedule is the decision sequence of this execution (the thread picked
	// at every decision point, in order); ReplaySchedule reproduces the
	// execution from it. It is recorded unconditionally so that failure
	// reports always carry a replayable schedule prefix.
	Schedule []ThreadID
	// Err is non-nil if implementation code panicked; the execution is then
	// unusable and the error should be propagated to the user.
	Err error
	// PanicValue and PanicStack carry the raw panic value and the panicking
	// goroutine's stack when Err is a subject panic, for structured failure
	// reports (Err holds the same information formatted).
	PanicValue any
	PanicStack []byte
	// Hung reports that the watchdog expired: the running thread made no
	// progress to its next instrumented point within Config.Watchdog and the
	// execution was abandoned. Events and Trace hold the prefix recorded
	// before the hang.
	Hung bool
	// HungThread is the display name of the thread the watchdog caught
	// (valid when Hung).
	HungThread string
	// LeakedThreads names the scheduler threads of an abandoned execution
	// that did not unwind within the abandonment grace period (they are
	// still blocked or spinning in subject code and their goroutines leak
	// knowingly; they self-destruct at their next instrumented point).
	LeakedThreads []string
	// LeakedGoroutines counts goroutines spawned by the subject outside the
	// scheduler that survived the execution (only when Config.DetectLeaks).
	LeakedGoroutines int
	// Coverage is the sorted set of distinct (MemKind, location) pairs the
	// execution touched, encoded with CoverageKey (nil unless
	// Config.TrackCoverage). Location identifiers are dense per execution and
	// allocated in construction order, so executions of the same program are
	// comparable.
	Coverage []uint64
}

// CoverageKey encodes one (MemKind, location) coverage pair of
// Outcome.Coverage. The kind occupies the low three bits.
func CoverageKey(kind MemKind, loc int) uint64 {
	return uint64(loc)<<3 | uint64(kind)&0x7
}

// DecodeCoverageKey splits a CoverageKey back into its kind and location.
func DecodeCoverageKey(key uint64) (MemKind, int) {
	return MemKind(key & 0x7), int(key >> 3)
}

// Scheduler coordinates the logical threads of a single execution. A fresh
// Scheduler is created for every execution and is not reusable; what it takes
// from its pool — the goroutines its threads run on, the end and dead channels
// and the threads, ebuf and ids buffers — outlives it when an exploration lent
// it the pool (see pool).
type Scheduler struct {
	cfg     Config
	ctrl    Controller
	pool    *pool
	threads []*Thread
	slab    []Thread // the execution's Thread handles, in spawn order
	leaked  []string
	// end wakes the Run goroutine when the running group can go no further;
	// dead collects the threads that unwound after a kill or an abandonment
	// (each sends at most once, so a send never blocks).
	end  chan struct{}
	dead chan *Thread

	// The scheduling state below belongs to the baton holder and is only
	// touched under mu (see transfer). group is the running thread group,
	// started counts the threads of a serial group whose thread-start code
	// already ran, cur is the thread the last decision chose and holder the
	// one running now (they differ only during serial thread start). progress
	// counts scheduling steps for the watchdog; fault is a panic of the
	// controller, carried to the Run goroutine.
	group      []*Thread
	started    int
	cur        *Thread
	holder     *Thread
	ebuf       []*Thread
	ids        []ThreadID
	decisions  int
	schedule   []ThreadID
	progress   uint64
	stuck      bool
	execErr    error
	panicVal   any
	panicStack []byte
	hung       bool
	fault      any

	// mu serializes scheduling steps with the watchdog's abandonment, and
	// guards events, trace, wfoot and the loc/op counters: a thread abandoned
	// by the watchdog may still be between instrumented points appending to
	// them while the Run goroutine assembles the outcome. Uncontended in
	// every cooperative execution.
	mu      sync.Mutex
	events  []OpEvent
	trace   []MemEvent
	cov     map[uint64]struct{} // distinct (kind, loc) pairs (Config.TrackCoverage)
	nextLoc int
	nextOp  int

	// fo, when non-nil, receives the footprint of every decision window
	// (Config.TrackFootprints and a controller implementing the observer
	// hook). wfoot is the reusable window accumulator.
	fo    footprintObserver
	wfoot Footprint
}

// NewScheduler creates the scheduler for one execution of prog under ctrl.
// A nil controller runs the default schedule: keep running the current
// thread while it is enabled, otherwise switch to the lowest-ID enabled
// thread.
func NewScheduler(cfg Config, ctrl Controller) *Scheduler {
	if ctrl == nil {
		ctrl = defaultController{}
	}
	s := &Scheduler{cfg: cfg, ctrl: ctrl}
	if cfg.TrackCoverage {
		s.cov = make(map[uint64]struct{})
	}
	if cfg.TrackFootprints {
		if fo, ok := ctrl.(footprintObserver); ok {
			s.fo = fo
		}
	}
	return s
}

type defaultController struct{}

func (defaultController) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	if curEnabled {
		return cur
	}
	return enabled[0]
}

// threadName converts a thread index into the display names used by the
// paper: "A", "B", ..., with the setup and teardown pseudo-threads named
// "init" and "fin".
func threadName(i int) string {
	if i < 26 {
		return "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[i : i+1]
	}
	return fmt.Sprintf("T%d", i)
}

// pool is what outlives an execution: parked worker goroutines, each with its
// resume channel and grown stack, and the scheduler's channels and buffers. An
// exploration owns one and lends it to every Scheduler it runs; a one-off Run
// makes its own and retires it on return. Only the Run goroutine touches it.
type pool struct {
	workers []*worker // the first used are bound to threads of the running execution
	used    int
	end     chan struct{}
	dead    chan *Thread
	threads []*Thread
	ebuf    []*Thread
	ids     []ThreadID
}

// worker is a goroutine that runs one thread body after another. spawn sets t
// and body while the worker is parked on resume; the thread's first baton token
// starts it.
type worker struct {
	resume  chan struct{}
	t       *Thread
	body    func(*Thread)
	retired atomic.Bool
}

func (p *pool) take() *worker {
	if p.used == len(p.workers) {
		w := &worker{resume: make(chan struct{}, 1)}
		p.workers = append(p.workers, w)
		go w.loop()
	}
	p.used++
	return p.workers[p.used-1]
}

// retire empties the pool: every worker exits, at once if it is parked and
// after its current body returns or unwinds if it is not, and the buffers are
// dropped. The channels of an abandoned execution may still receive a late send
// and its leaked workers still run subject code, so none of it may serve
// another execution.
func (p *pool) retire() {
	for _, w := range p.workers {
		w.retired.Store(true)
		select {
		case w.resume <- struct{}{}:
		default:
		}
	}
	*p = pool{}
}

func (w *worker) loop() {
	for !w.retired.Load() {
		<-w.resume
		if t, body := w.t, w.body; t != nil {
			// Forget the thread before running it: a token abandon left over
			// must find nothing to run a second time.
			w.t, w.body = nil, nil
			t.run(body)
		}
	}
}

// run is the life of thread t on its worker's goroutine, entered with the baton
// (or with a kill token if the execution ended before t ever ran).
func (t *Thread) run(body func(*Thread)) {
	s := t.sch
	if t.killed.Load() {
		s.dead <- t
		return
	}
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
			s.transfer(t, stateFinished, nil)
		case killSentinel:
			s.dead <- t
		case divergeSentinel:
			s.transfer(t, stateDiverged, nil)
		default:
			s.transfer(t, stateFinished, r)
		}
	}()
	body(t)
}

// spawn binds a pooled worker to a new thread. The *Thread is the thread's
// identity — wait sets that outlive an execution are keyed by it — so it is
// allocated per execution (one slab for all of them) and never recycled; the
// goroutine, its stack and its resume channel are.
func (s *Scheduler) spawn(name string, body func(t *Thread)) {
	w := s.pool.take()
	t := &s.slab[len(s.threads)]
	t.id, t.name, t.sch, t.resume, t.curOp = ThreadID(len(s.threads)), name, s, w.resume, -1
	s.threads = append(s.threads, t)
	w.t, w.body = t, body
}

// Run executes the program to completion (or stuckness) and returns the
// outcome. It must be called exactly once.
func (s *Scheduler) Run(prog Program) *Outcome {
	n := len(prog.Threads) + 2 // plus the setup and teardown pseudo-threads
	p := s.pool
	if p == nil {
		p = new(pool)
		s.pool = p
		defer p.retire()
	}
	if cap(p.dead) < n {
		p.end, p.dead = make(chan struct{}, 1), make(chan *Thread, n)
		p.threads, p.ebuf, p.ids = make([]*Thread, 0, n), make([]*Thread, 0, n), make([]ThreadID, 0, n)
	}
	// The previous execution ended cleanly (or the pool is empty): its workers
	// are parked or on their way there, its channels drained.
	p.used = 0
	s.end, s.dead, s.threads, s.ebuf, s.ids = p.end, p.dead, p.threads, p.ebuf, p.ids
	s.slab = make([]Thread, n)
	if h := s.cfg.Prealloc; h != (CapHint{}) {
		if h.Events > 0 {
			s.events = make([]OpEvent, 0, h.Events)
		}
		if h.Schedule > 0 {
			s.schedule = make([]ThreadID, 0, h.Schedule)
		}
		if h.Trace > 0 && s.cfg.RecordTrace {
			s.trace = make([]MemEvent, 0, h.Trace)
		}
	}
	baseGoroutines := 0
	if s.cfg.DetectLeaks {
		// Workers are the scheduler's goroutines, not the subject's: take the
		// baseline without the parked ones and allow for the ones parked after.
		baseGoroutines = runtime.NumGoroutine() - len(p.workers)
	}
	if prog.Setup != nil {
		s.spawn("init", prog.Setup)
		s.runGroup(0)
	}
	if !s.done() {
		first := len(s.threads)
		for i, body := range prog.Threads {
			s.spawn(threadName(i), body)
		}
		s.runGroup(first)
	}
	if !s.done() && prog.Teardown != nil {
		s.spawn("fin", prog.Teardown)
		s.runGroup(len(s.threads) - 1)
	}
	if !s.hung {
		// The abandonment path already unwound (or gave up on) every thread.
		s.killAll()
	}
	if s.fault != nil {
		// The controller panicked on a thread's goroutine: a framework fault,
		// not a subject failure. Re-panic it where the controller's owner can
		// see it, once the execution's goroutines are unwound.
		panic(s.fault)
	}
	out := &Outcome{
		Stuck:      s.stuck,
		Decisions:  s.decisions,
		Schedule:   s.schedule,
		Err:        s.execErr,
		PanicValue: s.panicVal,
		PanicStack: s.panicStack,
		Hung:       s.hung,
	}
	if s.hung {
		out.HungThread = s.holder.name
	}
	out.LeakedThreads = append(out.LeakedThreads, s.leaked...)
	s.mu.Lock()
	// Deliver the final decision window (the steps after the last Pick). For
	// failed executions the window may be incomplete; the explorer poisons it.
	s.flushWindow()
	if s.hung {
		// An abandoned thread may still append; hand out stable copies.
		out.Events = append([]OpEvent(nil), s.events...)
		out.Trace = append([]MemEvent(nil), s.trace...)
	} else {
		out.Events = s.events
		out.Trace = s.trace
	}
	if s.cov != nil {
		out.Coverage = make([]uint64, 0, len(s.cov))
		for k := range s.cov {
			out.Coverage = append(out.Coverage, k)
		}
		sort.Slice(out.Coverage, func(i, j int) bool { return out.Coverage[i] < out.Coverage[j] })
	}
	s.mu.Unlock()
	if s.cfg.DetectLeaks {
		out.LeakedGoroutines = s.countLeaks(baseGoroutines + len(p.workers))
	}
	return out
}

// done reports whether the execution already terminated abnormally and no
// further thread group may run.
func (s *Scheduler) done() bool {
	return s.stuck || s.execErr != nil || s.hung || s.fault != nil
}

// countLeaks waits briefly for the process goroutine count to settle back to
// the pre-execution baseline (plus the knowingly-abandoned scheduler
// threads) and returns the excess, attributing it to raw goroutines the
// subject spawned outside the scheduler.
func (s *Scheduler) countLeaks(base int) int {
	allowed := base + len(s.leaked)
	deadline := time.Now().Add(s.cfg.abandonGrace())
	for {
		n := runtime.NumGoroutine()
		if n <= allowed {
			return 0
		}
		if time.Now().After(deadline) {
			return n - allowed
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// runGroup runs the thread group s.threads[first:] until all of its threads
// finished, or the execution is stuck or failed. It takes the group's first
// scheduling step here, on the Run goroutine, and then sleeps until a thread
// ends the group.
func (s *Scheduler) runGroup(first int) {
	s.mu.Lock()
	s.group, s.cur, s.started = s.threads[first:], nil, 0
	s.handOff(s.next())
	s.mu.Unlock()
	s.await()
}

// transfer is the scheduling step: t, which holds the baton, stopped at an
// instrumented point (st runnable), blocked, or is exiting (finished or
// diverged; panicked is the subject's panic value, if any). On t's own
// goroutine it applies the transition, chooses the next thread and hands it
// the baton. If the choice is t itself it returns without touching a channel;
// otherwise t parks until it is chosen again, unless it is exiting.
//
// The whole step runs under mu and re-checks the abandoned flag, so a thread
// the watchdog gave up on that reaches a point later can neither call the
// controller (its owner may already be running the next execution) nor resume
// a sibling: it unwinds instead.
func (s *Scheduler) transfer(t *Thread, st threadState, panicked any) {
	exiting := st == stateFinished || st == stateDiverged
	s.mu.Lock()
	if s.hung {
		s.mu.Unlock()
		if exiting {
			s.dead <- t
			return
		}
		panic(killSentinel{})
	}
	s.progress++
	t.setState(st)
	switch {
	case panicked != nil:
		stack := debug.Stack()
		s.execErr = fmt.Errorf("sched: thread %s panicked: %v\n%s", t.name, panicked, stack)
		s.panicVal, s.panicStack = panicked, stack
	case st == stateBlocked || st == stateDiverged:
		// In serial mode no other thread may run while an operation is
		// incomplete; a blocked or diverged operation means the serial
		// execution is stuck (Section 2.3 of the paper).
		s.stuck = s.cfg.Serial
	}
	next := s.next()
	if next != t {
		s.handOff(next)
	}
	s.mu.Unlock()
	if next == t || exiting {
		return
	}
	<-t.resume
	if t.killed.Load() {
		panic(killSentinel{})
	}
}

// handOff passes the baton to next, or wakes the Run goroutine when the group
// is over (next == nil). Neither send blocks: a thread is only ever sent a
// token while it is parked or about to park, and a group ends once.
func (s *Scheduler) handOff(next *Thread) {
	if next == nil {
		s.end <- struct{}{}
		return
	}
	s.holder = next
	next.resume <- struct{}{}
}

// next chooses the thread that runs after the current scheduling step, nil
// when the group can run no further: all finished, stuck, the subject
// panicked, or the controller did.
func (s *Scheduler) next() *Thread {
	if s.execErr != nil || s.stuck {
		return nil
	}
	if s.cfg.Serial && s.started < len(s.group) {
		// Serial thread start: the code before a thread's first OpStart
		// invokes no operation and records no event, so it is not a decision.
		// Run it for every thread, in thread order, before the first Pick;
		// from then on every enabled thread is parked at an operation
		// boundary and each decision chooses the next operation of the serial
		// history.
		s.started++
		return s.group[s.started-1]
	}
	enabled := enabledOf(s.group, s.ebuf)
	switch len(enabled) {
	case 0:
		// Deadlock or livelock unless every thread finished: each unfinished
		// thread is blocked or diverged.
		s.stuck = !allFinished(s.group)
		return nil
	case 1:
		s.cur = enabled[0]
	default:
		s.cur = s.pick(enabled)
	}
	return s.cur
}

// pick asks the controller to choose among two or more enabled threads. A
// panic of the controller (or an answer outside the enabled set) must not
// unwind through subject code, where it would be taken for a subject panic:
// it is stored in fault, the group ends, and Run re-panics it.
func (s *Scheduler) pick(enabled []*Thread) (chosen *Thread) {
	defer func() {
		if r := recover(); r != nil {
			s.fault, chosen = r, nil
		}
	}()
	ids := s.ids[:0]
	for _, t := range enabled {
		ids = append(ids, t.id)
	}
	cur, curEnabled := NoThread, false
	if s.cur != nil {
		cur = s.cur.id
		curEnabled = s.cur.getState() == stateRunnable
	}
	s.decisions++
	// The steps since the previous decision form one window; hand its
	// footprint to the observer before the decision that closes it.
	s.flushWindow()
	id := s.ctrl.Pick(cur, curEnabled, ids)
	for _, t := range enabled {
		if t.id == id {
			s.schedule = append(s.schedule, id)
			return t
		}
	}
	panic(fmt.Sprintf("sched: controller picked disabled thread %d from %v", id, ids))
}

// watchdogTimersLive counts the watchdog timers currently armed (created and
// not yet released). Explorations arm one per thread group of every
// execution, so a long run cycles through many timers; tests assert the count
// returns to zero to catch timers escaping their execution.
var watchdogTimersLive atomic.Int64

// WatchdogTimersLive reports the number of watchdog timers armed and not yet
// released. It is zero whenever no execution with Config.Watchdog is in
// flight; tests use it to assert timer hygiene.
func WatchdogTimersLive() int64 { return watchdogTimersLive.Load() }

// await sleeps until the running group is over. With a watchdog armed it
// wakes once per interval to compare the progress counter with the previous
// sample; an interval without a scheduling step abandons the execution.
func (s *Scheduler) await() {
	if s.cfg.Watchdog <= 0 {
		<-s.end
		return
	}
	tick := time.NewTicker(s.cfg.Watchdog)
	watchdogTimersLive.Add(1)
	defer func() {
		tick.Stop()
		watchdogTimersLive.Add(-1)
	}()
	s.mu.Lock()
	seen := s.progress
	s.mu.Unlock()
	for {
		select {
		case <-s.end:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		// end is only sent under mu, so an empty channel means the group is
		// still running, whichever select case won.
		if s.progress == seen && len(s.end) == 0 {
			s.hung = true
			s.mu.Unlock()
			s.abandon()
			return
		}
		seen = s.progress
		s.mu.Unlock()
	}
}

// abandon force-terminates an execution whose running thread stopped
// cooperating. Every unfinished thread is marked killed and handed a resume
// token; parked threads unwind promptly via the kill sentinel, and the
// non-cooperative thread self-destructs at its next scheduling step — if it
// ever reaches one. Threads that do not unwind within the grace period are
// recorded as leaked.
func (s *Scheduler) abandon() {
	waiting := make(map[*Thread]bool)
	for _, t := range s.threads {
		switch t.getState() {
		case stateFinished, stateDiverged:
			continue
		}
		t.killed.Store(true)
		waiting[t] = true
	}
	// Retiring the pool hands every worker a token, the killed threads' among
	// them, and keeps this execution's goroutines and channels out of the next.
	s.pool.retire()
	deadline := time.NewTimer(s.cfg.abandonGrace())
	defer deadline.Stop()
	for len(waiting) > 0 {
		select {
		case t := <-s.dead:
			t.setState(stateFinished)
			delete(waiting, t)
		case <-deadline.C:
			for t := range waiting {
				s.leaked = append(s.leaked, t.name)
			}
			return
		}
	}
}

// enabledOf collects the runnable threads of the group into buf. The group
// is in spawn order, so the result is already sorted by thread ID.
func enabledOf(group []*Thread, buf []*Thread) []*Thread {
	out := buf[:0]
	for _, t := range group {
		if t.getState() == stateRunnable {
			out = append(out, t)
		}
	}
	return out
}

func allFinished(group []*Thread) bool {
	for _, t := range group {
		if t.getState() != stateFinished {
			return false
		}
	}
	return true
}

// killAll unwinds every goroutine that has not finished so that executions do
// not leak goroutines. Threads parked on their resume channel observe the
// killed flag and panic with the kill sentinel, which their wrapper recovers.
func (s *Scheduler) killAll() {
	for _, t := range s.threads {
		if t.getState() == stateFinished {
			continue
		}
		if t.getState() == stateDiverged {
			// The goroutine already unwound via the divergence sentinel.
			continue
		}
		t.killed.Store(true)
		t.resume <- struct{}{}
		<-s.dead
		t.setState(stateFinished)
	}
}

// Point marks an instrumented operation of the given kind. Depending on mode
// and granularity it is a scheduling decision, which may run other threads
// before this one continues.
func (t *Thread) Point(kind PointKind) {
	s := t.sch
	if t.killed.Load() {
		// The execution was abandoned while this thread ran outside the
		// scheduler's control; unwind before touching any shared state.
		panic(killSentinel{})
	}
	t.stepsInOp++
	if t.stepsInOp > s.cfg.maxOpSteps() {
		panic(divergeSentinel{})
	}
	if s.cfg.Serial {
		if kind != PointOpStart {
			return
		}
	} else if !s.cfg.Granularity.includes(kind) {
		return
	}
	s.transfer(t, stateRunnable, nil)
}

// block parks the thread until a wait set wakes it (or the execution ends).
func (t *Thread) block() {
	if t.killed.Load() {
		panic(killSentinel{})
	}
	t.sch.transfer(t, stateBlocked, nil)
}

// flushWindow delivers the accumulated window footprint to the observer and
// resets the accumulator. Called with mu held, which orders it against
// abandoned threads that may still be appending. The observer must copy what
// it keeps.
func (s *Scheduler) flushWindow() {
	if s.fo != nil {
		s.fo.observeWindow(&s.wfoot)
		s.wfoot.reset()
	}
}

// noteAccess merges one shared-memory access into the current window
// footprint.
func (s *Scheduler) noteAccess(loc int, write bool) {
	s.mu.Lock()
	s.wfoot.add(loc, write)
	s.mu.Unlock()
}

// noteGlobal poisons the current window: it performed an effect that cannot
// be attributed to a location, so it must conflict with everything.
func (s *Scheduler) noteGlobal() {
	s.mu.Lock()
	s.wfoot.Global = true
	s.mu.Unlock()
}

// Touch merges a shared-memory access into the current window footprint
// without recording a trace event. Instrumented primitives use it for
// accesses that the race checkers do not model but that still order steps —
// e.g. a failed TryLock reads the lock word.
func (t *Thread) Touch(loc int, write bool) {
	if t.sch.fo == nil {
		return
	}
	t.sch.noteAccess(loc, write)
}

// NewLoc allocates a fresh shared-memory location identifier. Instrumented
// cells call this once at construction time.
func (t *Thread) NewLoc() int {
	t.sch.mu.Lock()
	id := t.sch.nextLoc
	t.sch.nextLoc++
	t.sch.mu.Unlock()
	return id
}

// Record appends a memory event to the execution trace if tracing is on.
// Independently of tracing, the access enters the current decision window's
// footprint when footprints are tracked.
func (t *Thread) Record(kind MemKind, loc int, name string) {
	if t.sch.fo != nil {
		t.sch.noteAccess(loc, writeClass(kind))
	}
	if t.sch.cov != nil {
		t.sch.mu.Lock()
		t.sch.cov[CoverageKey(kind, loc)] = struct{}{}
		t.sch.mu.Unlock()
	}
	if !t.sch.cfg.RecordTrace {
		return
	}
	t.sch.mu.Lock()
	t.sch.trace = append(t.sch.trace, MemEvent{
		Thread: t.id, Kind: kind, Loc: loc, Name: name, Op: t.curOp,
	})
	t.sch.mu.Unlock()
}

// OpStart records the call event of an operation. The scheduling point
// precedes the recording so that a descheduled thread has not yet invoked
// the operation.
func (t *Thread) OpStart(name string) {
	t.stepsInOp = 0
	t.Point(PointOpStart)
	s := t.sch
	s.mu.Lock()
	t.curOp = s.nextOp
	s.nextOp++
	s.events = append(s.events, OpEvent{
		Thread: t.id, Kind: EvCall, Op: name, OpIndex: t.curOp,
	})
	if s.fo != nil {
		s.wfoot.Event = true
	}
	s.mu.Unlock()
}

// OpEnd records the return event of the operation started by the matching
// OpStart. A scheduling point precedes the return so that other threads may
// overlap with the completed body before the response becomes visible.
func (t *Thread) OpEnd(name, result string) {
	op := t.curOp
	t.Point(PointOpEnd)
	t.curOp = -1
	s := t.sch
	s.mu.Lock()
	s.events = append(s.events, OpEvent{
		Thread: t.id, Kind: EvReturn, Op: name, Result: result, OpIndex: op,
	})
	if s.fo != nil {
		s.wfoot.Event = true
	}
	s.mu.Unlock()
}

// Yield marks an explicit spin-wait yield (the fairness hint CHESS uses for
// lock-free retry loops); it is always a scheduling decision.
func (t *Thread) Yield() {
	t.Point(PointYield)
}
