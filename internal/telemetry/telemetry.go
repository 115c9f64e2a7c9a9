// Package telemetry is the observability layer of the checker: a set of
// cheap, concurrency-safe counters threaded through the scheduler (package
// sched), the two-phase checker (package core), and the witness monitor
// (package monitor), plus a span clock for phase wall-times, a JSONL event
// trace for post-hoc analysis, a live progress line, and an opt-in
// pprof/expvar HTTP endpoint.
//
// Design constraints, in order:
//
//   - Zero cost when off. Every method takes a nil *Collector, so an
//     instrumented site is one unguarded call that amounts to a pointer test.
//   - No locks or allocations on the exploration hot path. The explorer
//     accumulates plain-int deltas per execution and flushes them with a
//     handful of atomic adds once per execution (see sched); nothing
//     telemetry-related runs inside Controller.Pick.
//   - Deterministic totals. All counters are commutative sums or
//     high-watermarks, so a full exploration accumulates identical totals
//     regardless of worker count or visit order. Counters that feed
//     user-visible results (Result, PhaseStats) are not read back from the
//     collector — the deterministic explorer statistics remain the source of
//     truth; the collector only observes.
//
// A single Collector may be shared by any number of concurrent explorations;
// all methods are safe for concurrent use.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one thing that is counted. The declarations below are the
// only list of counters: a Collector holds one cell per declared Counter, and
// a Snap, the /debug/vars page and the event trace render a cell under the
// name given here. Adding a counter is adding one line.
type Counter int

var counterNames []string

func newCounter(name string) Counter {
	counterNames = append(counterNames, name)
	return Counter(len(counterNames) - 1)
}

// String returns the counter's name, its key in a Snap.
func (k Counter) String() string { return counterNames[k] }

// Scheduler / explorer counters (package sched).
var (
	ExecutionsStarted = newCounter("executions_started") // executions begun (schedules started)
	ExecutionsDone    = newCounter("executions_done")    // executions that ran to an outcome
	Decisions         = newCounter("decisions")          // scheduling decisions taken
	SchedulesPruned   = newCounter("schedules_pruned")   // branches skipped by sleep-set reduction
	SleepWakes        = newCounter("sleep_wakes")        // sleep-set entries woken by a dependent step
	MaxDepth          = newCounter("max_depth")          // high watermark: deepest DFS decision stack
	StuckExecutions   = newCounter("stuck_executions")   // deadlocked / livelocked outcomes
	WatchdogFires     = newCounter("watchdog_fires")     // executions abandoned by the watchdog
	FailPanics        = newCounter("fail_panics")        // executions failed by a subject panic
	FailHangs         = newCounter("fail_hangs")         // executions failed hung (== WatchdogFires today)
	FailLeaks         = newCounter("fail_leaks")         // executions failed by leaked goroutines
)

// Phase-2 dedup cache and witness-search counters (packages core and monitor).
var (
	HistCacheHits    = newCounter("histcache_hits")    // executions answered by the history cache
	HistCacheEntries = newCounter("histcache_entries") // distinct histories interned
	WitnessQueries   = newCounter("witness_queries")   // per-history witness decisions taken
	WitnessNodes     = newCounter("witness_nodes")     // WGL search nodes expanded (monitor backend)
	MonitorMemoHits  = newCounter("monitor_memo_hits") // WGL nodes pruned by the seen-set
	MonitorParts     = newCounter("monitor_parts")     // P-compositional parts searched
)

// Streaming-service counters (package serve); serve.Stats is read out of them.
var (
	ServeEventsIngested  = newCounter("serve_events_ingested")   // events accepted by the stream tracker
	ServeEventsRouted    = newCounter("serve_events_routed")     // events handed to a worker queue
	ServeEventsShed      = newCounter("serve_events_shed")       // events dropped by the shed backpressure policy
	ServeEventsApplied   = newCounter("serve_events_applied")    // events folded into partition state
	ServePartitions      = newCounter("serve_partitions")        // partitions seen
	ServeOpsChecked      = newCounter("serve_ops_checked")       // completed operations retired through windows
	ServeWindowFlushes   = newCounter("serve_window_flushes")    // quiescent windows retired
	ServeWindowOverflows = newCounter("serve_window_overflows")  // windows that outgrew the soft cap without quiescing
	ServeCacheHits       = newCounter("serve_cache_hits")        // window transitions answered by the dedup cache
	ServeCacheEntries    = newCounter("serve_cache_entries")     // window transitions held by the dedup cache
	ServeCheckpoints     = newCounter("serve_checkpoints")       // checkpoints written
	ServeMaxWindowEvents = newCounter("serve_max_window_events") // high watermark: widest window
	ServeMaxFrontier     = newCounter("serve_max_frontier")      // high watermark: widest state frontier
)

// Coverage-guided generation counters (package core, Generate).
var (
	GenTests    = newCounter("gen_tests")     // mutant tests checked
	GenAccepted = newCounter("gen_accepted")  // mutants admitted to the corpus (new coverage)
	GenCorpus   = newCounter("gen_corpus")    // high watermark: corpus size
	GenCovPairs = newCounter("gen_cov_pairs") // high watermark: distinct (kind, loc) footprint pairs
	GenCovHists = newCounter("gen_cov_hists") // high watermark: distinct canonical phase-2 histories
)

// Distributed-exploration counters (package dist).
var (
	DistLeasesGranted  = newCounter("dist_leases_granted")  // work-unit leases handed to workers
	DistLeasesExpired  = newCounter("dist_leases_expired")  // leases revoked after heartbeat loss
	DistRetries        = newCounter("dist_retries")         // units re-queued after a failed or expired lease
	DistUnitsDone      = newCounter("dist_units_done")      // units completed and journaled
	DistUnitsPoisoned  = newCounter("dist_units_poisoned")  // units that exhausted their retry budget
	DistStaleReports   = newCounter("dist_stale_reports")   // reports from superseded leases, discarded
	DistWorkerFailures = newCounter("dist_worker_failures") // worker runs that ended in an error
)

// Collector accumulates counters and spans for one checker run. The zero
// value is NOT ready to use; create collectors with New. A nil *Collector is
// a valid no-op sink: every method checks the receiver, so instrumented code
// needs no guards beyond passing the pointer along.
type Collector struct {
	start  time.Time
	parent *Collector     // also told of every Add and Max (see Child); nil at the root
	n      []atomic.Int64 // one cell per declared Counter, indexed by it

	mu     sync.Mutex
	spans  []Span
	events []Event
}

// New creates an empty collector whose clock starts now.
func New() *Collector {
	return &Collector{start: time.Now(), n: make([]atomic.Int64, len(counterNames))}
}

// Child returns a new collector scoped to one component (a serve.Server):
// what is counted on the child is counted on c as well, so c keeps the sum
// over all its children while each child reads back only its own share. A
// nil c still yields a working child, one without a parent.
func (c *Collector) Child() *Collector {
	child := New()
	child.parent = c
	return child
}

// Add adds n to counter k, here and on every ancestor.
func (c *Collector) Add(k Counter, n int64) {
	for ; c != nil; c = c.parent {
		c.n[k].Add(n)
	}
}

// Max raises the high watermark k to v if v exceeds it, here and on every
// ancestor. A concurrent lower observation never lowers it.
func (c *Collector) Max(k Counter, v int64) {
	for ; c != nil; c = c.parent {
		cell := &c.n[k]
		for cur := cell.Load(); v > cur && !cell.CompareAndSwap(cur, v); cur = cell.Load() {
		}
	}
}

// Get returns the current value of counter k, 0 on a nil collector.
func (c *Collector) Get(k Counter) int64 {
	if c == nil {
		return 0
	}
	return c.n[k].Load()
}

// Span is one named wall-clock interval (a check phase, a whole run).
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"` // offset from the collector epoch
	Dur   time.Duration `json:"dur"`
}

// StartSpan opens a named span and returns the function that closes it.
// Spans of the same name may be opened repeatedly (e.g. "phase2" once per
// test); every open/close pair records one Span. Closing also appends a
// span event carrying a counter snapshot to the event trace.
func (c *Collector) StartSpan(name string) func() {
	if c == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		end := time.Now()
		c.mu.Lock()
		c.spans = append(c.spans, Span{Name: name, Start: begin.Sub(c.start), Dur: end.Sub(begin)})
		c.mu.Unlock()
		c.Emit("span", name, end.Sub(begin))
	}
}

// Spans returns a copy of the recorded spans in completion order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// SpanTotal sums the durations of all completed spans with the given name.
func (c *Collector) SpanTotal(name string) time.Duration {
	var total time.Duration
	for _, s := range c.Spans() {
		if s.Name == name {
			total += s.Dur
		}
	}
	return total
}

// Snap is a moment-in-time copy of the counters by name, the flat record
// rendered by the /debug/vars endpoint and the event trace. A counter that is
// zero is absent, so reading a name that is not there gives its value.
type Snap map[string]int64

// Snapshot copies every non-zero counter; on a nil collector it is empty.
func (c *Collector) Snapshot() Snap {
	s := Snap{}
	for k, name := range counterNames {
		if v := c.Get(Counter(k)); v != 0 {
			s[name] = v
		}
	}
	return s
}
