// Package serve is the streaming linearizability-monitoring service: a
// long-running server that ingests live JSONL history events (stdin pipes,
// HTTP), routes them by P-compositional partition key to a bounded worker
// pool, and checks each partition incrementally in bounded memory.
//
// Architecture, front to back:
//
//   - One StreamTracker (package obsfile) validates thread discipline
//     across every transport and resolves each event's operation index and
//     partition key. Producers ingest through IngestConn handles — one per
//     connection, each with its own mutex — and a batch is validated and
//     routed under the tracker's lock, taken once per batch and released
//     before any queue send: connections validate one batch at a time and
//     wait on full queues side by side. Per-partition event order is
//     deterministic as long as each partition (and so each of its threads)
//     stays on one connection; splitting a partition across connections makes
//     its interleaving racy.
//   - A router hashes the partition key onto a fixed pool of workers, each
//     with a bounded FIFO queue. Events of one partition always land on the
//     same worker, so partition state is worker-owned and lock-free. There
//     is one way in, IngestBatch: a batch (a decoded frame, or a single
//     event) is grouped per worker and each group is one queue item,
//     amortizing the channel handoff. When producers outrun the checkers the
//     queue fills and the configured backpressure policy applies:
//     BlockOnFull stalls the producer, ShedOnFull poisons every partition of
//     the rejected group (a verdict would be meaningless on a gapped
//     history, so all their subsequent events are counted shed too).
//     The accounting invariant is exact under concurrency: every
//     tracker-accepted event is counted exactly once as routed or shed
//     (stuck markers excepted — they are control state, not partition data).
//   - Each partition is checked by a monitor.Incremental: a window of events
//     accumulates until the partition quiesces (no open calls) with at least
//     WindowOps completed operations, then the window is retired through the
//     frontier-of-states transition and forgotten. Identical windows from
//     identical frontiers — common when many partitions run the same
//     workload — are answered by a shared, bounded verdict dedup cache keyed
//     like the phase-2 history cache of internal/core. A stream whose
//     windows never repeat turns the cache off by missing: after 64 misses
//     in a row only every 64th window looks up, until one of those hits.
//   - The whole service state (tracker, per-partition frontiers and windows,
//     counters) checkpoints atomically through obsfile.AtomicWriteJSON, so a
//     killed server resumes without re-reading the stream from the start:
//     the producer replays and the server skips everything the checkpoint
//     already covers.
package serve

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"lineup/internal/core"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/telemetry"
)

// Backpressure selects what Ingest does when a worker queue is full.
type Backpressure int

const (
	// BlockOnFull stalls the producer until the worker catches up: no event
	// is ever lost and every verdict is exact. This is the default.
	BlockOnFull Backpressure = iota
	// ShedOnFull drops the event, counts it, and poisons its partition:
	// a partition with a gap cannot be judged, so its later events are shed
	// too and its verdict is reported with Shed set instead of a boolean
	// that would be a guess.
	ShedOnFull
)

func (b Backpressure) String() string {
	if b == ShedOnFull {
		return "shed"
	}
	return "block"
}

// MarshalText and UnmarshalText give a Backpressure its one text form
// ("block", "shed"), the spelling of the -backpressure flag.
func (b Backpressure) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

func (b *Backpressure) UnmarshalText(text []byte) error {
	switch string(text) {
	case "block":
		*b = BlockOnFull
	case "shed":
		*b = ShedOnFull
	default:
		return fmt.Errorf("serve: unknown backpressure policy %q (block or shed)", text)
	}
	return nil
}

// Config configures a Server.
type Config struct {
	// Model is the executable sequential specification every partition is
	// checked against. Required.
	Model *monitor.Model
	// Workers is the checker pool size; 0 selects core.OnePerCPU.
	Workers int
	// WindowOps is the retirement threshold: a partition's window is retired
	// once it quiesces holding at least this many completed operations.
	// 0 selects 128.
	WindowOps int
	// QueueDepth bounds each worker's queue, counted in sub-batches: a slot
	// holds the events one IngestBatch call routed to that worker (up to a
	// frame's worth; exactly one for Ingest). 0 selects 1024.
	QueueDepth int
	// Backpressure selects the full-queue policy (default BlockOnFull).
	Backpressure Backpressure
	// CheckpointPath, when set, enables checkpointing to this file (written
	// atomically).
	CheckpointPath string
	// CheckpointEvery writes a checkpoint after this many ingested events
	// (0 disables automatic checkpoints; Checkpoint may still be called).
	CheckpointEvery int64
	// Telemetry, when non-nil, accumulates the service counters (everything
	// Stats reports as a count) summed over the servers that share it.
	Telemetry *telemetry.Collector
	// OnVerdict, when non-nil, is called from a worker goroutine the moment
	// a partition's verdict becomes NOT linearizable (streaming alerting).
	OnVerdict func(PartitionVerdict)

	// resume is the loaded checkpoint New restores from (set by Resume).
	resume *Checkpoint
	// http bounds the HTTP endpoint: defaultHTTPLimits, which only tests
	// replace (export_test.go), for a small body cap and short timeouts.
	http *httpLimits
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return core.OnePerCPU()
}

func (c Config) windowOps() int {
	if c.WindowOps > 0 {
		return c.WindowOps
	}
	return 128
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 1024
}

// maxWindowEvents is the soft cap above which a non-quiescing partition's
// growing window is counted as an overflow (memory for that partition is no
// longer bounded; correctness is preserved by keeping the events).
func (c Config) maxWindowEvents() int { return 8 * c.windowOps() }

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("serve: server is closed")

// Server is one running monitoring service. Create it with New, feed it
// through Ingest/IngestReader (and the HTTP endpoint, see StartHTTP), and
// finish with Close, which drains the pool, judges the residual windows, and
// returns the final per-partition verdicts.
type Server struct {
	cfg     Config
	mopts   monitor.Options // per-window search options
	cache   *windowCache
	workers []*worker

	// tel holds every count Stats reports — a child of cfg.Telemetry, so a
	// shared collector gets the sum and this server reads back its own share.
	// Producers and workers count each event once, here.
	tel *telemetry.Collector

	// Ingest-side state, all safe under concurrent connections: the poisoned
	// set is a sync.Map, and the stop-the-world operations (checkpoint, drain,
	// verdicts, close) serialize against every connection through lockWorld.
	// Lock order: worldMu < connMu < conn.mu < trackerMu.
	worldMu   sync.Mutex // serializes stop-the-world operations
	connMu    sync.Mutex // guards the connection registry
	conns     []*IngestConn
	defOnce   sync.Once
	defConn   *IngestConn
	poisoned  sync.Map     // partition key -> struct{}
	nPoisoned atomic.Int64 // count of keys in poisoned; 0 lets ingest skip the map probe
	closed    atomic.Bool

	httpCloser io.Closer

	// Validation state: the tracker and what resolveKey, the resume skip and
	// the checkpoint cadence keep, all under trackerMu (IngestBatch holds it
	// once per batch). It comes last, away from the fields every worker
	// reads, because ingest writes it on another core.
	trackerMu       sync.Mutex
	tracker         *obsfile.StreamTracker
	skip            int64 // replayed events a restored checkpoint already covers
	sinceCp         int64 // events ingested, for the checkpoint cadence
	sawNamedKey     bool  // some op routed to a named partition
	sawDerivedWhole bool  // the model declared some op whole-object
}

// New creates and starts a server: the worker pool runs immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil || cfg.Model.Init == nil || cfg.Model.Step == nil {
		return nil, errors.New("serve: Config.Model must define Init and Step")
	}
	cfg.http = cmp.Or(cfg.http, defaultHTTPLimits)
	s := &Server{
		cfg: cfg,
		// The stream is split before windowing, and ModeAuto reads the
		// residual windows' pending operations by the stuck marker.
		mopts:   monitor.Options{NoPartition: true, Telemetry: cfg.Telemetry},
		cache:   newWindowCache(),
		tracker: obsfile.NewStreamTracker(),
		tel:     cfg.Telemetry.Child(),
	}
	for i := 0; i < cfg.workers(); i++ {
		s.workers = append(s.workers, &worker{
			srv:   s,
			ch:    make(chan workItem, cfg.queueDepth()),
			parts: make(map[string]*part),
			done:  make(chan struct{}),
		})
	}
	// Restore before the workers run: partition state is rebuilt directly
	// into the (not yet concurrent) worker maps.
	if cp := cfg.resume; cp != nil {
		if err := s.restore(cp); err != nil {
			return nil, err
		}
	}
	for _, w := range s.workers {
		go w.loop()
	}
	return s, nil
}

// workItem is one unit on a worker queue: a routed sub-batch (IngestBatch
// groups a batch's events per worker and sends each group as one item) or a
// control message (barrier, snapshot, finish).
type workItem struct {
	batch []routedEvent
	ctl   *ctlMsg
}

// routedEvent is one resolved event inside a batched workItem.
type routedEvent struct {
	key string
	ev  obsfile.StreamEvent
}

type ctlKind int

const (
	ctlDrain ctlKind = iota
	ctlSnapshot
	ctlStatus
	ctlFinish
	ctlHold
)

type ctlMsg struct {
	kind  ctlKind
	stuck bool          // ctlFinish: global stuck flag for residual windows
	hold  chan struct{} // ctlHold: closed to release the parked worker
	ack   chan ctlReply
}

type ctlReply struct {
	parts []PartCheckpoint   // ctlSnapshot
	verds []PartitionVerdict // ctlStatus / ctlFinish
}

// resolveKey maps an event to its partition key: an explicit "p" field wins;
// otherwise the model's Partition function is consulted; monolithic models
// (or whole-object operations) fall back to the single "" partition. The
// caller holds trackerMu.
func (s *Server) resolveKey(ev obsfile.StreamEvent) (string, error) {
	key := ev.Part
	derivedWhole := false
	if key == "" && s.cfg.Model.Partition != nil && ev.Op != "" {
		k, ok := s.cfg.Model.Partition(ev.Op)
		if ok {
			key = k
		} else {
			derivedWhole = true
		}
	}
	// A whole-object operation observed alongside named partitions breaks
	// P-compositionality: the batch monitor would refuse to split, so a
	// split live stream could disagree with it. Fail stop either way round.
	// A flag is stored only when it flips, so the hot path stays read-only.
	if derivedWhole && !s.sawDerivedWhole {
		s.sawDerivedWhole = true
	} else if !derivedWhole && key != "" && !s.sawNamedKey {
		s.sawNamedKey = true
	}
	if s.sawDerivedWhole && s.sawNamedKey {
		return "", fmt.Errorf("serve: the stream mixes operations that observe the whole object with partitioned ones (arriving: %q); supply explicit partition keys or a partitionable model", ev.Op)
	}
	return key, nil
}

// IngestConn is one producer's handle onto the server: each transport
// connection (an HTTP request body, a stdin pipe, a bench producer goroutine)
// ingests through its own conn — IngestBatch, or Ingest for a batch of one —
// and conns ingest concurrently. A conn serializes its own events
// (per-connection order is the order the producer wrote) and tracks its own
// event ordinal for error messages. The determinism contract is
// per-partition: events of one partition see a fixed order iff that
// partition — and every thread contributing to it — stays on one connection.
type IngestConn struct {
	srv  *Server
	mu   sync.Mutex
	line int64 // per-connection event ordinal, for error messages

	// scratch holds IngestBatch's per-worker routing table (indexed by worker),
	// reused across calls so the steady-state frame path allocates only the
	// event buffers it hands off — no per-frame map.
	scratch [][]routedEvent
}

// NewConn registers a new ingest connection. Release it when the producer is
// done; a conn used after server close just returns ErrClosed.
func (s *Server) NewConn() *IngestConn {
	c := &IngestConn{srv: s}
	s.connMu.Lock()
	s.conns = append(s.conns, c)
	s.connMu.Unlock()
	return c
}

// Release unregisters the connection.
func (c *IngestConn) Release() {
	s := c.srv
	s.connMu.Lock()
	for i, x := range s.conns {
		if x == c {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.connMu.Unlock()
}

// poison marks a partition's stream as gapped. LoadOrStore keeps nPoisoned an
// exact count of distinct poisoned keys, so the zero fast path in isPoisoned
// stays truthful under concurrent and repeated poisonings.
func (s *Server) poison(key string) {
	if _, loaded := s.poisoned.LoadOrStore(key, struct{}{}); !loaded {
		s.nPoisoned.Add(1)
	}
}

// isPoisoned reports whether the partition was poisoned by an earlier shed.
// The common case — nothing poisoned anywhere — is one atomic load, keeping
// the sync.Map probe off the per-event hot path.
func (s *Server) isPoisoned(key string) bool {
	if s.nPoisoned.Load() == 0 {
		return false
	}
	_, bad := s.poisoned.Load(key)
	return bad
}

// cpTickN advances the checkpoint cadence by n events and reports whether
// that crossed a checkpoint boundary. The caller holds trackerMu, and must
// act on the answer only after releasing its conn lock (checkpointing stops
// the world, which needs every conn lock).
func (s *Server) cpTickN(n int64) bool {
	if s.cfg.CheckpointPath == "" || s.cfg.CheckpointEvery <= 0 {
		return false
	}
	s.sinceCp += n
	return s.sinceCp/s.cfg.CheckpointEvery != (s.sinceCp-n)/s.cfg.CheckpointEvery
}

// Ingest validates, routes, and (policy permitting) enqueues one raw trace
// event on this connection: an IngestBatch of one. It returns a validation
// error for malformed events (the stream is then unusable, matching the
// fail-stop StreamReader) and nil for shed events, which are only counted.
func (c *IngestConn) Ingest(ev obsfile.TraceEvent) error {
	_, err := c.IngestBatch([]obsfile.TraceEvent{ev})
	return err
}

// IngestBatch is the one ingest path: it validates and routes a batch of raw
// events under one acquisition of the tracker lock, grouping the routed
// events per worker, and then, with the tracker lock released, hands each
// group to its worker as a single queue item. Under
// ShedOnFull a full queue poisons and sheds the rejected group — every
// partition in it, which for a batch of one is exactly that event's
// partition — keeping the routed+shed accounting exact. Returns the number of
// events consumed (validated or skipped) before any error.
func (c *IngestConn) IngestBatch(evs []obsfile.TraceEvent) (int, error) {
	s := c.srv
	c.mu.Lock()
	if c.scratch == nil {
		c.scratch = make([][]routedEvent, len(s.workers))
	}
	var (
		n       int
		acc     int64 // events the tracker accepted (telemetry + cadence, batched)
		shed    int64 // of those, events of a partition poisoned earlier
		err     error
		batches = c.scratch
	)
	s.trackerMu.Lock()
	for _, ev := range evs {
		if s.closed.Load() {
			err = ErrClosed
			break
		}
		if s.skip > 0 { // replayed, and already in the restored checkpoint
			s.skip--
			n++
			continue
		}
		c.line++
		sev, aerr := s.tracker.Apply(ev, int(c.line))
		if aerr != nil {
			err = aerr
			break
		}
		n++
		acc++
		if sev.Stuck {
			continue
		}
		key, kerr := s.resolveKey(sev)
		if kerr != nil {
			err = kerr
			break
		}
		if s.isPoisoned(key) {
			shed++
			continue
		}
		wi := s.workerFor(key)
		if batches[wi] == nil {
			// Exact capacity up front: the buffer is handed to the worker and
			// cannot be recycled, so append-doubling would only churn copies.
			batches[wi] = make([]routedEvent, 0, len(evs))
		}
		batches[wi] = append(batches[wi], routedEvent{key: key, ev: sev})
	}
	cpDue := s.cpTickN(acc)
	s.trackerMu.Unlock()
	// Ingested is counted before shed and routed, and Stats reads it last, so
	// no snapshot shows more events routed and shed than ingested.
	if acc > 0 {
		s.tel.Add(telemetry.ServeEventsIngested, acc)
	}
	if shed > 0 {
		s.tel.Add(telemetry.ServeEventsShed, shed)
	}
	for wi, buf := range batches {
		if buf == nil {
			continue
		}
		batches[wi] = nil // handed off below; the worker owns the buffer now
		w := s.workers[wi]
		item := workItem{batch: buf}
		fate := telemetry.ServeEventsRouted
		if s.cfg.Backpressure == ShedOnFull {
			select {
			case w.ch <- item:
			default:
				fate = telemetry.ServeEventsShed
				for _, r := range buf {
					s.poison(r.key)
				}
			}
		} else {
			w.ch <- item
		}
		s.tel.Add(fate, int64(len(buf)))
	}
	c.mu.Unlock()
	if cpDue {
		if cperr := s.autoCheckpoint(); cperr != nil && err == nil {
			err = cperr
		}
	}
	return n, err
}

func (s *Server) defaultConn() *IngestConn {
	s.defOnce.Do(func() { s.defConn = s.NewConn() })
	return s.defConn
}

// Ingest validates, routes, and (policy permitting) enqueues one raw trace
// event on the server's default connection. Concurrent producers should hold
// their own connection (NewConn) instead of contending here.
func (s *Server) Ingest(ev obsfile.TraceEvent) error {
	return s.defaultConn().Ingest(ev)
}

// workerFor hashes a partition key onto a worker (FNV-1a, inlined to keep the
// ingest hot path allocation-free).
func (s *Server) workerFor(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(len(s.workers)))
}

// IngestReader pumps a trace stream (e.g. a stdin pipe or one HTTP request
// body) through its own connection until EOF or the first error, returning
// the number of raw events read. This is where the wire format is decided: a
// stream that opens with obsfile.FrameMagic is batch frames, handed to
// IngestFrames, and anything else is JSONL, whose blank lines and '#'
// comments are skipped. A JSONL line cannot begin with the magic, so the peek
// never mistakes one format for the other.
func (s *Server) IngestReader(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if head, _ := br.Peek(len(obsfile.FrameMagic)); string(head) == obsfile.FrameMagic {
		return s.IngestFrames(br)
	}
	c := s.NewConn()
	defer c.Release()
	sr := obsfile.NewRawReader(br)
	var n int64
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if err := c.Ingest(ev); err != nil {
			return n, err
		}
	}
}

// IngestFrames pumps a binary batch-frame stream through its own connection
// until EOF or the first error, returning the number of raw events consumed.
func (s *Server) IngestFrames(r io.Reader) (int64, error) {
	c := s.NewConn()
	defer c.Release()
	fr := obsfile.NewFrameReader(r)
	var n int64
	for {
		evs, err := fr.NextBatch()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		used, err := c.IngestBatch(evs)
		n += int64(used)
		if err != nil {
			return n, err
		}
	}
}

// lockWorld stalls every ingest connection and returns the unlock function:
// while held, no event moves and every counter is quiescent, so stop-the-world
// operations (checkpoint, drain, verdicts, close) see a consistent snapshot.
// Lock order is worldMu < connMu < conn.mu everywhere.
func (s *Server) lockWorld() func() {
	s.worldMu.Lock()
	s.connMu.Lock()
	conns := make([]*IngestConn, len(s.conns))
	copy(conns, s.conns)
	for _, c := range conns {
		c.mu.Lock()
	}
	return func() {
		for i := len(conns) - 1; i >= 0; i-- {
			conns[i].mu.Unlock()
		}
		s.connMu.Unlock()
		s.worldMu.Unlock()
	}
}

// broadcast sends one control message to every worker and collects the
// replies. The caller must hold the world lock (or otherwise guarantee no
// concurrent ingest) for barrier semantics: with ingest stalled, the FIFO
// queues mean every event routed before the control is applied before the
// reply.
func (s *Server) broadcast(msg ctlMsg) []ctlReply {
	replies := make([]ctlReply, 0, len(s.workers))
	for _, w := range s.workers {
		ack := make(chan ctlReply, 1)
		m := msg
		m.ack = ack
		w.ch <- workItem{ctl: &m}
		replies = append(replies, <-ack)
	}
	return replies
}

// HoldWorkers parks the checker pool: every worker acknowledges and then
// waits until the returned release function is called. While held, ingest
// keeps validating and routing — queued work just accumulates — so a load
// harness can measure the ingest path's capacity separately from checking
// throughput on machines where both share cores. The queues must be deep
// enough to absorb everything ingested while held (BlockOnFull producers
// stall against a full queue; ShedOnFull ones shed). Checkpoint, Drain,
// Verdicts, and Close all barrier on the workers, so call release before
// any of them.
func (s *Server) HoldWorkers() (release func(), err error) {
	unlock := s.lockWorld()
	defer unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	hold := make(chan struct{})
	s.broadcast(ctlMsg{kind: ctlHold, hold: hold})
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }, nil
}

// Drain blocks until every event ingested so far has been applied to its
// partition.
func (s *Server) Drain() error {
	unlock := s.lockWorld()
	defer unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.broadcast(ctlMsg{kind: ctlDrain})
	return nil
}

// Verdicts returns a live snapshot of the per-partition status without
// finishing the stream: partitions that already failed report Linearizable
// false; the rest are still in flight and report Linearizable true with
// Final false.
func (s *Server) Verdicts() ([]PartitionVerdict, error) {
	unlock := s.lockWorld()
	defer unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return mergeVerdicts(s.broadcast(ctlMsg{kind: ctlStatus})), nil
}

func mergeVerdicts(replies []ctlReply) []PartitionVerdict {
	var out []PartitionVerdict
	for _, r := range replies {
		out = append(out, r.verds...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats is a live counter snapshot of the service.
type Stats struct {
	EventsIngested  int64 `json:"events_ingested"` // accepted by the tracker
	EventsRouted    int64 `json:"events_routed"`
	EventsShed      int64 `json:"events_shed"`
	EventsApplied   int64 `json:"events_applied"` // folded into partition state
	Partitions      int64 `json:"partitions"`
	OpsChecked      int64 `json:"ops_checked"` // completed ops retired through windows
	WindowFlushes   int64 `json:"window_flushes"`
	WindowOverflows int64 `json:"window_overflows"`
	CacheHits       int64 `json:"cache_hits"`
	CacheEntries    int64 `json:"cache_entries"`
	CacheSkipped    int64 `json:"cache_skipped"` // windows decided without a lookup
	Checkpoints     int64 `json:"checkpoints"`
	MaxWindowEvents int64 `json:"max_window_events"` // widest window observed
	MaxFrontier     int64 `json:"max_frontier"`      // widest state frontier observed
	OpenCalls       int   `json:"open_calls"`        // operations currently pending
	Stuck           bool  `json:"stuck,omitempty"`   // the stream's stuck marker arrived
	QueueDepths     []int `json:"queue_depths"`      // live per-worker backlog
}

// Stats snapshots the counters; safe to call concurrently with ingest. The
// counters are atomics and the tracker's two values are read under its lock,
// between two batches, so the snapshot is not a single instant: routed+shed
// may momentarily trail ingested while events are in flight. At any quiescent
// point (after Drain, inside a checkpoint, after Close) the invariant
// routed+shed == ingested holds exactly, stuck markers excepted.
func (s *Server) Stats() Stats {
	get := s.tel.Get
	s.trackerMu.Lock()
	openCalls, stuck := s.tracker.OpenCalls(), s.tracker.Stuck()
	s.trackerMu.Unlock()
	st := Stats{
		EventsRouted:    get(telemetry.ServeEventsRouted),
		EventsShed:      get(telemetry.ServeEventsShed),
		EventsApplied:   get(telemetry.ServeEventsApplied),
		Partitions:      get(telemetry.ServePartitions),
		OpsChecked:      get(telemetry.ServeOpsChecked),
		WindowFlushes:   get(telemetry.ServeWindowFlushes),
		WindowOverflows: get(telemetry.ServeWindowOverflows),
		CacheHits:       get(telemetry.ServeCacheHits),
		CacheEntries:    get(telemetry.ServeCacheEntries),
		CacheSkipped:    get(telemetry.ServeCacheSkipped),
		Checkpoints:     get(telemetry.ServeCheckpoints),
		MaxWindowEvents: get(telemetry.ServeMaxWindowEvents),
		MaxFrontier:     get(telemetry.ServeMaxFrontier),
		OpenCalls:       openCalls,
		Stuck:           stuck,
		EventsIngested:  get(telemetry.ServeEventsIngested), // last: see IngestBatch
	}
	for _, w := range s.workers {
		st.QueueDepths = append(st.QueueDepths, len(w.ch))
	}
	return st
}

// PartitionVerdict is the judgment of one partition.
type PartitionVerdict struct {
	Key          string `json:"partition"`
	Linearizable bool   `json:"linearizable"`
	Final        bool   `json:"final"`           // residual window judged (Close) or failed early
	Shed         bool   `json:"shed,omitempty"`  // poisoned: verdict covers a gapped stream
	Err          string `json:"error,omitempty"` // search error (state limit, unknown op, model panic)
	Ops          int64  `json:"ops"`             // completed operations observed
	Windows      int64  `json:"windows"`         // windows retired
	Frontier     int    `json:"frontier"`        // frontier states at last transition
}

// Summary is the final outcome of a served stream.
type Summary struct {
	Verdicts     []PartitionVerdict `json:"verdicts"`
	Stats        Stats              `json:"stats"`
	Linearizable bool               `json:"linearizable"` // every judged partition linearizable, no errors
}

// Close finishes the service: it drains the queues, judges every residual
// window (applying the stream's stuck marker, if any), stops the workers and
// the HTTP endpoint, and returns the final summary. A configured checkpoint
// file gets one last snapshot before the verdict pass so a crash during
// shutdown still resumes.
func (s *Server) Close() (*Summary, error) {
	unlock := s.lockWorld()
	if s.closed.Load() {
		unlock()
		return nil, ErrClosed
	}
	if s.cfg.CheckpointPath != "" {
		if err := s.checkpointStopped(); err != nil {
			unlock()
			return nil, err
		}
	}
	s.closed.Store(true)
	s.trackerMu.Lock()
	stuck := s.tracker.Stuck()
	s.trackerMu.Unlock()
	replies := s.broadcast(ctlMsg{kind: ctlFinish, stuck: stuck})
	unlock()
	s.shutdownWorkers()
	if s.httpCloser != nil {
		_ = s.httpCloser.Close()
	}
	poisonedKeys := make(map[string]bool)
	s.poisoned.Range(func(k, _ any) bool {
		poisonedKeys[k.(string)] = true
		return true
	})
	sum := &Summary{Verdicts: mergeVerdicts(replies), Linearizable: true}
	for i := range sum.Verdicts {
		v := &sum.Verdicts[i]
		v.Shed = poisonedKeys[v.Key]
		if v.Err != "" || (!v.Linearizable && !v.Shed) {
			sum.Linearizable = false
		}
	}
	sum.Stats = s.Stats()
	return sum, nil
}

func (s *Server) shutdownWorkers() {
	for _, w := range s.workers {
		close(w.ch)
	}
	for _, w := range s.workers {
		<-w.done
	}
}
