package sched

import (
	"errors"
	"fmt"

	"lineup/internal/telemetry"
)

// Unbounded disables preemption bounding (used for the serial phase, which
// the paper runs without any bounding to keep the completeness theorem).
const Unbounded = -1

// ExploreConfig parameterizes an exhaustive exploration.
type ExploreConfig struct {
	Config
	// PreemptionBound limits the number of preemptive context switches per
	// execution (a switch taken while the current thread is still enabled).
	// Use Unbounded for no limit. The paper's default is 2.
	PreemptionBound int
	// MaxExecutions aborts exploration after this many executions (a safety
	// net, 0 = no limit).
	MaxExecutions int
	// ContinueOnFailure hands failed executions (panic, hang, goroutine
	// leak; see Outcome.FailureKind) to the visit callback instead of
	// aborting the exploration with their error. The subtree below a failed
	// execution's realized decision prefix is not explored further (the
	// execution never reached it), but all sibling schedules are.
	ContinueOnFailure bool
	// Reduction selects the partial-order reduction strategy. ReductionSleep
	// prunes schedules that only commute independent steps of already
	// explored ones; the set of distinct histories visited — and therefore
	// every verdict derived from them — is identical to ReductionNone, while
	// the number of executions can drop by orders of magnitude. Pruning is a
	// deterministic function of the schedule tree, so it composes with the
	// parallel explorer, work stealing, and work-unit replay.
	Reduction Reduction
	// Telemetry, when non-nil, receives execution/decision/pruning counters
	// and the DFS-depth watermark. The explorer accumulates plain-int deltas
	// during an execution and flushes them with a few atomic adds once per
	// execution, so nothing telemetry-related runs inside Pick; a nil
	// collector costs one pointer test per execution. Counters are
	// observe-only — ExploreStats remains the deterministic source of truth.
	Telemetry *telemetry.Collector
}

// ErrBudget is returned when exploration hits MaxExecutions before the
// schedule space was exhausted.
var ErrBudget = errors.New("sched: execution budget exhausted before exploration completed")

// ExploreStats summarizes an exploration.
type ExploreStats struct {
	Executions int
	Decisions  int
	// Pruned counts branches skipped by sleep-set reduction: decision
	// alternatives that were within the preemption budget but provably
	// redundant. It is deterministic for full explorations, regardless of
	// worker count.
	Pruned    int
	Truncated bool // true if MaxExecutions stopped exploration early
}

// add accumulates o's counts into s.
func (s *ExploreStats) add(o ExploreStats) {
	s.Executions += o.Executions
	s.Decisions += o.Decisions
	s.Pruned += o.Pruned
}

// choice is one decision point on the DFS stack.
type choice struct {
	enabled    []ThreadID // order: current thread first (if enabled), then ascending
	cur        ThreadID
	curEnabled bool
	next       int // index into enabled currently being explored
	budget     int // preemption budget remaining before this decision

	// Sleep-set reduction state (ReductionSleep only).
	//
	// sleep is fixed at node creation: threads whose next step is covered by
	// an earlier-explored subtree (inherited from the parent's sleep and
	// retired branches, minus entries woken by dependence on the parent's
	// executed window). explored accumulates this node's retired branches
	// that are eligible to put descendants to sleep. foot is the window
	// footprint of the branch currently at next, recorded by the first
	// execution through it and cleared when the branch is retired. exhausted
	// marks a node whose every affordable branch was asleep at creation: its
	// single forced continuation is provably redundant, so the node never
	// branches.
	sleep     []sleepEntry
	explored  []sleepEntry
	foot      *Footprint
	exhausted bool
}

func (c *choice) cost(i int) int {
	if c.curEnabled && c.enabled[i] != c.cur {
		return 1
	}
	return 0
}

// explorer drives depth-first stateless exploration. It implements
// Controller: during a run it replays the recorded prefix and extends the
// frontier with default (non-preemptive) choices. Every exhaustive path —
// the lone DFS of Explore and ExploreUnit, a worker of ExploreParallel, the
// prefix generator of SplitUnits — is an explorer behind a coordinator, which
// decides budget, termination, and stealing.
type explorer struct {
	// cfg is the per-execution scheduler configuration; its Prealloc is fed
	// from every finished execution (steady-state executions of one
	// exploration have near-identical shapes).
	cfg     Config
	bound   int
	red     Reduction
	contain bool // ExploreConfig.ContinueOnFailure
	co      *coordinator
	stack   []*choice
	depth   int
	budget  int
	// pool carries worker goroutines and scheduler buffers from one execution
	// to the next; free holds the nodes advanceAbove popped, for Pick to reuse.
	pool pool
	free []*choice
	// counted is what the explorer ran, decided and skipped (sleep-set skips,
	// see ExploreStats.Pruned) since the last take: one shard's share of the
	// statistics.
	counted ExploreStats
	// seed pins the branch index of every level of a WorkUnit's path during
	// the unit's first execution; it is cleared afterwards. seedExplored
	// restores the retired-branch records of those levels.
	seed         []int
	seedExplored [][]BranchRecord
	// pos is the reusable buffer behind position.
	pos Pos

	// tel receives counter flushes once per execution (never inside Pick).
	// wakes counts sleep-set entries woken by a dependent window; lastPruned
	// and lastWakes remember the counts already flushed, so each flush adds
	// only the delta and totals stay commutative across parallel workers.
	tel        *telemetry.Collector
	wakes      int
	lastPruned int
	lastWakes  int
}

func newExplorer(cfg ExploreConfig, co *coordinator) *explorer {
	if cfg.Reduction == ReductionSleep {
		cfg.Config.TrackFootprints = true
	}
	return &explorer{
		cfg: cfg.Config, bound: cfg.PreemptionBound, red: cfg.Reduction,
		contain: cfg.ContinueOnFailure, co: co, tel: cfg.Telemetry,
	}
}

// finish ends the explorer's worker goroutines, so every owner of an explorer
// defers it: a re-panicked controller fault must not leak them.
func (e *explorer) finish() {
	e.pool.retire()
	e.flushPruneTelemetry()
}

// take returns and resets counted. Every (node, branch) skip is counted by
// exactly one explorer on exactly one shard — nodes live in exactly one stack,
// and a split hands the skipped gap to the child — so a shard's Pruned, like
// its Executions and Decisions, is a function of the interval it covers.
func (e *explorer) take() ExploreStats {
	e.flushPruneTelemetry()
	s := e.counted
	e.counted, e.lastPruned = ExploreStats{}, 0
	return s
}

// position is the Pos of the execution the stack points at: the unit path
// while a WorkUnit's first execution is pending, the branch index of every
// stack level otherwise. The result aliases a reused buffer and is valid
// until the next call.
func (e *explorer) position() Pos {
	if e.seed != nil {
		return e.seed
	}
	e.pos = appendPath(e.pos[:0], e.stack)
	return e.pos
}

// step runs the execution the stack points at, if the coordinator admits it.
// It is the one place exhaustive exploration starts a scheduler. ok is false
// when the execution must not run (budget, or a terminal event precedes it)
// or failed without containment, which is itself a terminal event. The
// returned Pos is position's and shares its lifetime.
func (e *explorer) step(prog Program) (out *Outcome, p Pos, ok bool) {
	p = e.position()
	if !e.co.reserve(p) {
		return nil, nil, false
	}
	e.counted.Executions++
	e.depth, e.budget = 0, e.bound
	e.tel.Add(telemetry.ExecutionsStarted, 1)
	s := NewScheduler(e.cfg, e)
	s.pool = &e.pool
	out = s.Run(prog)
	e.seed, e.seedExplored = nil, nil
	e.flushTelemetry(out)
	e.counted.Decisions += out.Decisions
	e.cfg.Prealloc = CapHint{Events: len(out.Events), Schedule: len(out.Schedule), Trace: len(out.Trace)}
	if out.FailureKind() != FailNone {
		if e.red == ReductionSleep {
			// The failure interrupted the deepest window mid-flight; its
			// recorded footprint under-approximates the step, so poison it.
			e.poisonDeepest()
		}
		if !e.contain {
			e.co.noteTerminal(p, out.FailureError())
			return nil, nil, false
		}
	}
	return out, p, true
}

// explore visits the subtree of sh — its stack at levels >= sh.floor — in
// depth-first order; the stack (or the seed) points at the first execution to
// run. A visit returning false is a terminal event at its position. Between
// executions the explorer sheds part of the subtree if the coordinator has
// starving workers (never the case for a lone DFS).
func (e *explorer) explore(prog Program, sh *shard, visit func(*Outcome, Pos) bool) {
	e.stack = sh.stack
	for {
		if e.co.splitWanted() {
			if child := sh.split(e); child != nil {
				e.co.push(child)
			}
		}
		out, p, ok := e.step(prog)
		if !ok {
			return
		}
		if !visit(out, p) {
			e.co.noteTerminal(p, nil)
			return
		}
		if !e.advanceAbove(sh.floor) {
			return
		}
	}
}

// generate walks the schedule tree backtracking only within the first depth
// decision levels and emits, for each prefix's subtree, the number of pinned
// levels, once the walk has run the subtree's leftmost execution; emit reads
// the subtree's frontier from e.stack. The walk is the explorer's whole life:
// it finishes it.
func (e *explorer) generate(prog Program, depth int, emit func(floor int)) {
	defer e.finish()
	for {
		if _, _, ok := e.step(prog); !ok {
			return
		}
		floor := depth
		if len(e.stack) < floor {
			floor = len(e.stack)
		}
		emit(floor)
		// Discard the subtree's deep levels without counting their trailing
		// branches — whoever explores the subtree pops (and counts) them —
		// and advance the pinned prefix to the next subtree.
		e.stack = e.stack[:floor]
		if !e.advanceAbove(0) {
			return
		}
	}
}

func (e *explorer) allowed(c *choice, i int) bool {
	if e.bound == Unbounded {
		return true
	}
	return c.budget >= c.cost(i)
}

func (e *explorer) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	if e.depth < len(e.stack) {
		c := e.stack[e.depth]
		if !sameIDsOrdered(c.enabled, cur, curEnabled, enabled) || c.cur != cur || c.curEnabled != curEnabled {
			panic(fmt.Sprintf("sched: nondeterministic replay at decision %d: recorded (cur=%d enabled=%v), got (cur=%d enabled=%v)",
				e.depth, c.cur, c.enabled, cur, enabled))
		}
		e.budget -= c.cost(c.next)
		e.depth++
		return c.enabled[c.next]
	}
	var c *choice
	if n := len(e.free); n > 0 {
		// A recycled node keeps the buffers it owns (cloneStack copies both).
		c, e.free = e.free[n-1], e.free[:n-1]
		*c = choice{enabled: c.enabled[:0], explored: c.explored[:0]}
	} else {
		c = new(choice)
	}
	ord := orderChoices(c.enabled, cur, curEnabled, enabled)
	c.enabled, c.cur, c.curEnabled, c.budget = ord, cur, curEnabled, e.budget
	if e.red == ReductionSleep {
		c.sleep = e.childSleep()
	}
	if e.depth < len(e.seed) {
		// Unit replay: the seed pins the branch (and restores the retired
		// branches) of every level the unit's generator had reached; its
		// pruning decisions were already taken — and counted — there.
		c.next = e.seed[e.depth]
		if c.next < 0 || c.next >= len(ord) {
			panic(fmt.Sprintf("sched: work unit does not match program: decision %d offers %d choices, unit path wants branch %d",
				e.depth, len(ord), c.next))
		}
		if e.depth < len(e.seedExplored) {
			for _, br := range e.seedExplored[e.depth] {
				c.explored = append(c.explored, sleepEntry{tid: br.Thread, foot: br.Foot.clone()})
			}
		}
		if e.red == ReductionSleep && c.next == 0 {
			// Re-detect a fully-slept node. The generator counted every
			// affordable branch as pruned when it created this node and forced
			// the free continuation; without the flag the replayed backtracking
			// would retire the node and count the very same branches again.
			exhausted := true
			for i := range ord {
				if e.allowed(c, i) && !e.sleeps(c, i) {
					exhausted = false
					break
				}
			}
			c.exhausted = exhausted
		}
	} else if e.red == ReductionSleep {
		// Skip straight to the first affordable non-sleeping branch. If every
		// affordable branch is asleep the whole node is redundant; the
		// execution still has to finish, so take the free continuation
		// (branch 0 costs nothing) and never branch here.
		for c.next < len(ord) {
			if !e.allowed(c, c.next) {
				c.next++
				continue
			}
			if e.sleeps(c, c.next) {
				e.counted.Pruned++
				c.next++
				continue
			}
			break
		}
		if c.next >= len(ord) {
			c.next = 0
			c.exhausted = true
		}
	}
	e.stack = append(e.stack, c)
	e.budget -= c.cost(c.next)
	e.depth++
	return ord[c.next]
}

// sleeps reports whether branch i of c schedules a sleeping thread.
func (e *explorer) sleeps(c *choice, i int) bool {
	for _, s := range c.sleep {
		if s.tid == c.enabled[i] {
			return true
		}
	}
	return false
}

// childSleep computes the sleep set of the node about to be created from its
// parent (the deepest stack node): the parent's sleeping threads plus the
// threads of the parent's retired branches, minus the thread the parent is
// executing and minus every entry whose deferred step depends on the parent's
// executed window (a dependent step must be rescheduled — only reorderings of
// independent steps are redundant).
func (e *explorer) childSleep() []sleepEntry {
	if e.depth == 0 {
		return nil
	}
	p := e.stack[e.depth-1]
	w := p.enabled[p.next]
	var out []sleepEntry
	for _, src := range [2][]sleepEntry{p.sleep, p.explored} {
		for _, s := range src {
			if s.tid == w {
				continue
			}
			if s.foot.ConflictsWith(p.foot) {
				// The deferred step depends on the executed window: wake it.
				e.wakes++
				continue
			}
			out = append(out, s)
		}
	}
	return out
}

// recordOutcomeTelemetry publishes one finished execution's outcome counters:
// a handful of atomic adds, shared by the DFS, parallel, and sampling
// explorers so the three report failures identically.
func recordOutcomeTelemetry(c *telemetry.Collector, out *Outcome) {
	c.Add(telemetry.ExecutionsDone, 1)
	c.Add(telemetry.Decisions, int64(out.Decisions))
	if out.Stuck {
		c.Add(telemetry.StuckExecutions, 1)
	}
	switch out.FailureKind() {
	case FailPanic:
		c.Add(telemetry.FailPanics, 1)
	case FailHung:
		c.Add(telemetry.WatchdogFires, 1)
		c.Add(telemetry.FailHangs, 1)
	case FailLeak:
		c.Add(telemetry.FailLeaks, 1)
	}
}

// flushTelemetry publishes one finished execution's counter deltas to the
// collector. It runs between executions — never inside Pick — and performs a
// handful of atomic adds; pruning/wake counts are flushed as deltas so the
// totals are commutative sums independent of worker count and visit order.
func (e *explorer) flushTelemetry(out *Outcome) {
	recordOutcomeTelemetry(e.tel, out)
	e.tel.Max(telemetry.MaxDepth, int64(len(e.stack)))
	e.flushPruneTelemetry()
}

// flushPruneTelemetry publishes pruning/wake deltas accumulated since the
// last flush (advance prunes branches after the final execution's flush).
func (e *explorer) flushPruneTelemetry() {
	if d := e.counted.Pruned - e.lastPruned; d > 0 {
		e.tel.Add(telemetry.SchedulesPruned, int64(d))
		e.lastPruned = e.counted.Pruned
	}
	if d := e.wakes - e.lastWakes; d > 0 {
		e.tel.Add(telemetry.SleepWakes, int64(d))
		e.lastWakes = e.wakes
	}
}

// retire closes out the branch currently at c.next: its subtree is fully
// explored. If the branch is eligible to put later siblings' descendants to
// sleep, it is recorded with its window footprint. Under preemption bounding
// only the current thread's free continuation (branch 0 with cur enabled) is
// eligible: moving that branch's step later in an equivalent schedule never
// costs an extra preemption, so the pruned schedule's representative is
// affordable wherever the pruned schedule was. Unbounded explorations have no
// budget to respect and use classic full sleep sets. See DESIGN.md.
func (e *explorer) retire(c *choice) {
	if e.red != ReductionSleep || c.exhausted {
		c.foot = nil
		return
	}
	if e.bound == Unbounded || (c.next == 0 && c.curEnabled) {
		c.explored = append(c.explored, sleepEntry{tid: c.enabled[c.next], foot: footOrGlobal(c.foot)})
	}
	c.foot = nil
}

// observeWindow receives the footprint of the window closed by the upcoming
// decision (or by the end of the execution); it belongs to the branch
// currently explored at the deepest already-visited level. The footprint is
// only recorded once per branch — replayed prefixes regenerate identical
// windows.
func (e *explorer) observeWindow(f *Footprint) {
	if e.depth == 0 || e.depth > len(e.stack) {
		return
	}
	c := e.stack[e.depth-1]
	if c.foot == nil {
		c.foot = f.clone()
	}
}

// poisonDeepest marks the deepest executed branch's window footprint as
// conflicting with everything. Called after a failed execution (panic, hang):
// the window the failure interrupted is incomplete, so nothing may sleep
// through it.
func (e *explorer) poisonDeepest() {
	if e.depth == 0 || e.depth > len(e.stack) {
		return
	}
	e.stack[e.depth-1].foot = globalFootprint()
}

// advanceAbove backtracks to the deepest decision at a level >= floor with
// an unexplored, affordable alternative; levels below floor are pinned (the
// subtree's schedule prefix) and never altered. It reports false when the
// subtree is exhausted.
func (e *explorer) advanceAbove(floor int) bool {
	for len(e.stack) > floor {
		c := e.stack[len(e.stack)-1]
		if c.exhausted {
			// A fully-slept node never branches; its forced continuation was
			// already accounted at creation.
			e.pop()
			continue
		}
		e.retire(c)
		c.next++
		for c.next < len(c.enabled) {
			if !e.allowed(c, c.next) {
				c.next++
				continue
			}
			if e.red == ReductionSleep && e.sleeps(c, c.next) {
				e.counted.Pruned++
				c.next++
				continue
			}
			break
		}
		if c.next < len(c.enabled) {
			return true
		}
		e.pop()
	}
	return false
}

// pop takes the deepest node off the stack and keeps it for Pick to reuse.
func (e *explorer) pop() {
	n := len(e.stack) - 1
	e.stack, e.free = e.stack[:n], append(e.free, e.stack[n])
}

// orderChoices puts the current thread first (the free, non-preemptive
// continuation) followed by the remaining enabled threads in ascending order.
// The ordering determines DFS default behavior: run a thread as long as it is
// enabled, which makes the zero-preemption schedule the first one explored.
func orderChoices(ord []ThreadID, cur ThreadID, curEnabled bool, enabled []ThreadID) []ThreadID {
	if curEnabled {
		ord = append(ord, cur)
	}
	for _, id := range enabled {
		if curEnabled && id == cur {
			continue
		}
		ord = append(ord, id)
	}
	return ord
}

// sameIDsOrdered verifies that ord is exactly what orderChoices would build
// from (cur, curEnabled, enabled) — the replay-consistency check of Pick —
// without allocating. ord came from orderChoices at record time, so an
// element-wise walk (cur first if enabled, then the remaining IDs in
// ascending order) is equivalent to the set comparison it replaces, and this
// runs once per replayed decision on the exploration hot path.
func sameIDsOrdered(ord []ThreadID, cur ThreadID, curEnabled bool, enabled []ThreadID) bool {
	if len(ord) != len(enabled) {
		return false
	}
	i := 0
	if curEnabled {
		if len(ord) == 0 || ord[0] != cur {
			return false
		}
		i = 1
	}
	for _, id := range enabled {
		if curEnabled && id == cur {
			continue
		}
		if i >= len(ord) || ord[i] != id {
			return false
		}
		i++
	}
	return i == len(ord)
}

// Explore enumerates the schedules of prog and calls visit for every
// execution outcome. If visit returns false, exploration stops early (used
// to stop at the first linearizability violation). The returned stats count
// executions and decisions; err is non-nil if an execution failed (a panic,
// watchdog hang, or goroutine leak — unless cfg.ContinueOnFailure hands
// failed outcomes to visit instead) or the execution budget ran out. It is
// ExploreUnit on the root unit, for visitors that need no position.
func Explore(cfg ExploreConfig, prog Program, visit func(*Outcome) bool) (ExploreStats, error) {
	return ExploreUnit(cfg, prog, WorkUnit{}, func(out *Outcome, _ Pos) bool { return visit(out) })
}

// exploredOf serializes the retired-branch records of every stack level for a
// work unit.
func exploredOf(stack []*choice) [][]BranchRecord {
	out := make([][]BranchRecord, len(stack))
	for i, c := range stack {
		for _, s := range c.explored {
			out[i] = append(out[i], BranchRecord{Thread: s.tid, Foot: *footOrGlobal(s.foot)})
		}
	}
	return out
}

// ScheduleDivergenceError reports that a recorded schedule could not be
// replayed faithfully: at some decision the schedule named a thread that was
// not among the enabled threads. This happens when the program has changed
// since the schedule was recorded (or the schedule belongs to a different
// program), so the replayed outcome would not reproduce the recorded
// execution.
type ScheduleDivergenceError struct {
	// Decision is the index into the schedule at which replay diverged.
	Decision int
	// Want is the recorded thread that was not enabled.
	Want ThreadID
	// Enabled is the set of threads that were actually enabled.
	Enabled []ThreadID
}

func (e *ScheduleDivergenceError) Error() string {
	return fmt.Sprintf("sched: schedule diverged at decision %d: recorded thread %d is not enabled (enabled: %v)",
		e.Decision, e.Want, e.Enabled)
}

// ReplaySchedule re-executes prog following a fixed sequence of decisions
// (as produced by RecordingController); it is used to reproduce a reported
// violation deterministically. If the schedule names a thread that is not
// enabled at its decision — the program no longer matches the recording —
// the execution completes on a fallback schedule and a
// *ScheduleDivergenceError describing the first divergence is returned
// alongside the (untrustworthy) outcome.
func ReplaySchedule(cfg Config, prog Program, schedule []ThreadID) (*Outcome, error) {
	r := &replayer{schedule: schedule}
	s := NewScheduler(cfg, r)
	out := s.Run(prog)
	if r.diverged != nil {
		return out, r.diverged
	}
	return out, nil
}

type replayer struct {
	schedule []ThreadID
	pos      int
	diverged *ScheduleDivergenceError
}

func (r *replayer) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	if r.pos < len(r.schedule) {
		want := r.schedule[r.pos]
		r.pos++
		for _, id := range enabled {
			if id == want {
				return id
			}
		}
		// The recorded thread is disabled: the program changed since the
		// schedule was recorded. Remember the first divergence and fall
		// through to the fallback so the execution still terminates.
		if r.diverged == nil {
			r.diverged = &ScheduleDivergenceError{
				Decision: r.pos - 1,
				Want:     want,
				Enabled:  append([]ThreadID(nil), enabled...),
			}
		}
	}
	// Past the recorded schedule or after a divergence: fall back to the
	// first enabled thread.
	return orderChoices(nil, cur, curEnabled, enabled)[0]
}

// RecordingController wraps another controller and records the decisions it
// takes, so a failing execution can be replayed with ReplaySchedule.
type RecordingController struct {
	Inner    Controller
	Schedule []ThreadID
}

// Pick implements Controller.
func (rc *RecordingController) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	id := rc.Inner.Pick(cur, curEnabled, enabled)
	rc.Schedule = append(rc.Schedule, id)
	return id
}
