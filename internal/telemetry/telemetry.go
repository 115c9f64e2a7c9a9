// Package telemetry is the observability layer of the checker: a set of
// cheap, concurrency-safe counters threaded through the scheduler (package
// sched), the two-phase checker (package core), and the witness monitor
// (package monitor), plus a span clock for phase wall-times, a JSONL event
// trace for post-hoc analysis, a live progress line, and an opt-in
// pprof/expvar HTTP endpoint.
//
// Design constraints, in order:
//
//   - Zero cost when off. Every instrumented site guards on a nil
//     *Collector; passing no collector compiles to a pointer test.
//   - No locks or allocations on the exploration hot path. The explorer
//     accumulates plain-int deltas per execution and flushes them with a
//     handful of atomic adds once per execution (see sched); nothing
//     telemetry-related runs inside Controller.Pick.
//   - Deterministic totals. All counters are commutative sums (plus one
//     high-watermark), so a full exploration accumulates identical totals
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

// Collector accumulates counters and spans for one checker run. The zero
// value is NOT ready to use; create collectors with New. A nil *Collector is
// a valid no-op sink: every method checks the receiver, so instrumented code
// needs no guards beyond passing the pointer along.
type Collector struct {
	start time.Time

	// Scheduler / explorer counters (package sched).
	ExecutionsStarted atomic.Int64 // executions begun (schedules started)
	ExecutionsDone    atomic.Int64 // executions that ran to an outcome
	Decisions         atomic.Int64 // scheduling decisions taken
	SchedulesPruned   atomic.Int64 // branches skipped by sleep-set reduction
	SleepWakes        atomic.Int64 // sleep-set entries woken by a dependent step
	StuckExecutions   atomic.Int64 // deadlocked / livelocked outcomes
	WatchdogFires     atomic.Int64 // executions abandoned by the watchdog
	FailPanics        atomic.Int64 // executions failed by a subject panic
	FailHangs         atomic.Int64 // executions failed hung (== WatchdogFires today)
	FailLeaks         atomic.Int64 // executions failed by leaked goroutines
	maxDepth          atomic.Int64 // deepest DFS decision stack observed

	// Phase-2 dedup cache counters (package core).
	HistCacheHits    atomic.Int64 // executions answered by the history cache
	HistCacheEntries atomic.Int64 // distinct histories interned

	// Witness-search counters (packages core and monitor).
	WitnessQueries  atomic.Int64 // per-history witness decisions taken
	WitnessNodes    atomic.Int64 // WGL search nodes expanded (monitor backend)
	MonitorMemoHits atomic.Int64 // WGL nodes pruned by the seen-set
	MonitorParts    atomic.Int64 // P-compositional parts searched

	// Streaming-service counters (package serve).
	ServeEventsIngested  atomic.Int64 // events accepted by the stream tracker
	ServeEventsShed      atomic.Int64 // events dropped by the shed backpressure policy
	ServeOpsChecked      atomic.Int64 // completed operations retired through windows
	ServeWindowFlushes   atomic.Int64 // quiescent windows retired
	ServeWindowOverflows atomic.Int64 // windows that outgrew the soft cap without quiescing
	ServeCacheHits       atomic.Int64 // window transitions answered by the dedup cache
	ServeCheckpoints     atomic.Int64 // checkpoints written

	// Coverage-guided generation counters (package core, Generate).
	GenTests    atomic.Int64 // mutant tests checked
	GenAccepted atomic.Int64 // mutants admitted to the corpus (new coverage)
	GenCorpus   atomic.Int64 // high watermark: corpus size
	GenCovPairs atomic.Int64 // high watermark: distinct (kind, loc) footprint pairs
	GenCovHists atomic.Int64 // high watermark: distinct canonical phase-2 histories

	// Distributed-exploration counters (package dist).
	DistLeasesGranted  atomic.Int64 // work-unit leases handed to workers
	DistLeasesExpired  atomic.Int64 // leases revoked after heartbeat loss
	DistRetries        atomic.Int64 // units re-queued after a failed or expired lease
	DistUnitsDone      atomic.Int64 // units completed and journaled
	DistUnitsPoisoned  atomic.Int64 // units that exhausted their retry budget
	DistStaleReports   atomic.Int64 // reports from superseded leases, discarded
	DistWorkerFailures atomic.Int64 // worker runs that ended in an error

	mu     sync.Mutex
	spans  []Span
	open   map[string]time.Time
	events []Event
}

// New creates an empty collector whose clock starts now.
func New() *Collector {
	return &Collector{start: time.Now(), open: make(map[string]time.Time)}
}

// Start returns the collector's epoch (the New call), the zero time on nil.
func (c *Collector) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.start
}

// ObserveDepth raises the DFS-depth high watermark to d if it exceeds the
// current maximum.
func (c *Collector) ObserveDepth(d int) {
	if c == nil {
		return
	}
	v := int64(d)
	for {
		cur := c.maxDepth.Load()
		if v <= cur || c.maxDepth.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MaxDepth returns the DFS-depth high watermark.
func (c *Collector) MaxDepth() int64 {
	if c == nil {
		return 0
	}
	return c.maxDepth.Load()
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

// Snap is a moment-in-time copy of every counter, the flat record rendered
// by the progress line, the /debug/vars endpoint, and the event trace.
type Snap struct {
	ExecutionsStarted int64 `json:"executions_started"`
	ExecutionsDone    int64 `json:"executions_done"`
	Decisions         int64 `json:"decisions"`
	SchedulesPruned   int64 `json:"schedules_pruned"`
	SleepWakes        int64 `json:"sleep_wakes"`
	MaxDepth          int64 `json:"max_depth"`
	StuckExecutions   int64 `json:"stuck_executions"`
	WatchdogFires     int64 `json:"watchdog_fires"`
	FailPanics        int64 `json:"fail_panics"`
	FailHangs         int64 `json:"fail_hangs"`
	FailLeaks         int64 `json:"fail_leaks"`
	HistCacheHits     int64 `json:"histcache_hits"`
	HistCacheEntries  int64 `json:"histcache_entries"`
	WitnessQueries    int64 `json:"witness_queries"`
	WitnessNodes      int64 `json:"witness_nodes"`
	MonitorMemoHits   int64 `json:"monitor_memo_hits"`
	MonitorParts      int64 `json:"monitor_parts"`

	ServeEventsIngested  int64 `json:"serve_events_ingested,omitempty"`
	ServeEventsShed      int64 `json:"serve_events_shed,omitempty"`
	ServeOpsChecked      int64 `json:"serve_ops_checked,omitempty"`
	ServeWindowFlushes   int64 `json:"serve_window_flushes,omitempty"`
	ServeWindowOverflows int64 `json:"serve_window_overflows,omitempty"`
	ServeCacheHits       int64 `json:"serve_cache_hits,omitempty"`
	ServeCheckpoints     int64 `json:"serve_checkpoints,omitempty"`

	GenTests    int64 `json:"gen_tests,omitempty"`
	GenAccepted int64 `json:"gen_accepted,omitempty"`
	GenCorpus   int64 `json:"gen_corpus,omitempty"`
	GenCovPairs int64 `json:"gen_cov_pairs,omitempty"`
	GenCovHists int64 `json:"gen_cov_hists,omitempty"`

	DistLeasesGranted  int64 `json:"dist_leases_granted,omitempty"`
	DistLeasesExpired  int64 `json:"dist_leases_expired,omitempty"`
	DistRetries        int64 `json:"dist_retries,omitempty"`
	DistUnitsDone      int64 `json:"dist_units_done,omitempty"`
	DistUnitsPoisoned  int64 `json:"dist_units_poisoned,omitempty"`
	DistStaleReports   int64 `json:"dist_stale_reports,omitempty"`
	DistWorkerFailures int64 `json:"dist_worker_failures,omitempty"`
}

// Snapshot copies every counter; on a nil collector it returns zeros.
func (c *Collector) Snapshot() Snap {
	if c == nil {
		return Snap{}
	}
	return Snap{
		ExecutionsStarted: c.ExecutionsStarted.Load(),
		ExecutionsDone:    c.ExecutionsDone.Load(),
		Decisions:         c.Decisions.Load(),
		SchedulesPruned:   c.SchedulesPruned.Load(),
		SleepWakes:        c.SleepWakes.Load(),
		MaxDepth:          c.maxDepth.Load(),
		StuckExecutions:   c.StuckExecutions.Load(),
		WatchdogFires:     c.WatchdogFires.Load(),
		FailPanics:        c.FailPanics.Load(),
		FailHangs:         c.FailHangs.Load(),
		FailLeaks:         c.FailLeaks.Load(),
		HistCacheHits:     c.HistCacheHits.Load(),
		HistCacheEntries:  c.HistCacheEntries.Load(),
		WitnessQueries:    c.WitnessQueries.Load(),
		WitnessNodes:      c.WitnessNodes.Load(),
		MonitorMemoHits:   c.MonitorMemoHits.Load(),
		MonitorParts:      c.MonitorParts.Load(),

		ServeEventsIngested:  c.ServeEventsIngested.Load(),
		ServeEventsShed:      c.ServeEventsShed.Load(),
		ServeOpsChecked:      c.ServeOpsChecked.Load(),
		ServeWindowFlushes:   c.ServeWindowFlushes.Load(),
		ServeWindowOverflows: c.ServeWindowOverflows.Load(),
		ServeCacheHits:       c.ServeCacheHits.Load(),
		ServeCheckpoints:     c.ServeCheckpoints.Load(),

		GenTests:    c.GenTests.Load(),
		GenAccepted: c.GenAccepted.Load(),
		GenCorpus:   c.GenCorpus.Load(),
		GenCovPairs: c.GenCovPairs.Load(),
		GenCovHists: c.GenCovHists.Load(),

		DistLeasesGranted:  c.DistLeasesGranted.Load(),
		DistLeasesExpired:  c.DistLeasesExpired.Load(),
		DistRetries:        c.DistRetries.Load(),
		DistUnitsDone:      c.DistUnitsDone.Load(),
		DistUnitsPoisoned:  c.DistUnitsPoisoned.Load(),
		DistStaleReports:   c.DistStaleReports.Load(),
		DistWorkerFailures: c.DistWorkerFailures.Load(),
	}
}
