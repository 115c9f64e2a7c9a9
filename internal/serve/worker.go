package serve

import (
	"fmt"
	"sort"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/telemetry"
)

// worker owns a shard of the partition space: every event of a given
// partition key lands on the same worker, so the per-partition state below
// is accessed by exactly one goroutine and needs no locks. Control messages
// ride the same FIFO queue as events, which is what makes them barriers:
// by the time a control is applied, every event routed before it has been
// folded into partition state.
type worker struct {
	srv   *Server
	ch    chan workItem
	parts map[string]*part
	done  chan struct{}
}

// part is the full retained state of one partition: the incremental checker
// (whose frontier summarizes everything already retired) plus the current
// window of not-yet-retired events. Once failed or errored the partition
// stops checking — the verdict is already final — but keeps counting ops so
// the accounting invariant stays exact.
type part struct {
	key        string
	inc        *monitor.Incremental
	window     []history.Event
	open       int   // open calls inside the window
	completed  int   // completed ops inside the window
	ops        int64 // completed ops observed in total
	windows    int64 // windows retired
	failed     bool  // verdict: not linearizable (final)
	errMsg     string
	overflowed bool // current window already counted as an overflow
	alerted    bool // OnVerdict already fired for this partition's failure
}

func (w *worker) loop() {
	defer close(w.done)
	for item := range w.ch {
		if item.ctl != nil {
			w.control(item.ctl)
			continue
		}
		w.srv.tel.Add(telemetry.ServeEventsApplied, int64(len(item.batch)))
		for _, r := range item.batch {
			w.apply(r.key, r.ev)
		}
	}
}

// part returns the partition's state, creating it on first sight. A model
// whose Init fails still gets a partition — without a checker, errMsg set —
// so its events are counted and it reports one errored final verdict.
func (w *worker) part(key string) *part {
	p, ok := w.parts[key]
	if !ok {
		inc, err := monitor.NewIncremental(w.srv.cfg.Model, w.srv.stats)
		p = &part{key: key, inc: inc}
		if err != nil {
			p.errMsg = err.Error()
		}
		w.parts[key] = p
		w.srv.tel.Add(telemetry.ServePartitions, 1)
	}
	return p
}

// apply folds one event into its partition's window and retires the window
// when the partition quiesces with enough completed operations. Model code
// runs under the checker's panic containment; a worker-level recover guards
// the bookkeeping itself so one poisoned partition cannot take the pool down.
func (w *worker) apply(key string, ev obsfile.StreamEvent) {
	defer func() {
		if r := recover(); r != nil {
			p := w.part(key)
			if p.errMsg == "" {
				p.errMsg = fmt.Sprintf("serve: partition %q: internal panic: %v", key, r)
			}
		}
	}()
	p := w.part(key)
	if ev.Kind == history.Return {
		p.ops++
	}
	if p.failed || p.errMsg != "" {
		return // verdict is final; count and drop
	}
	p.window = append(p.window, ev.HistoryEvent())
	if ev.Kind == history.Call {
		p.open++
	} else {
		p.open--
		p.completed++
	}
	w.srv.tel.Max(telemetry.ServeMaxWindowEvents, int64(len(p.window)))
	if p.open == 0 && p.completed >= w.srv.cfg.windowOps() {
		w.flush(p)
	} else if p.open > 0 && !p.overflowed && len(p.window) > w.srv.cfg.maxWindowEvents() {
		// The partition refuses to quiesce: its window now exceeds the soft
		// cap. Memory for it is no longer bounded (correctness requires
		// keeping the events); surface that as a counted overflow.
		p.overflowed = true
		w.srv.tel.Add(telemetry.ServeWindowOverflows, 1)
	}
}

// flush retires the partition's current window through the incremental
// checker, consulting the shared dedup cache first: many partitions running
// the same workload produce identical (frontier, window) transitions, and
// equal fingerprints mean behaviorally identical states, so replaying the
// cached resulting frontier is sound.
func (w *worker) flush(p *part) {
	s := w.srv
	h := &history.History{Events: p.window}
	retiredOps := p.completed
	var key []byte
	var entry *windowEntry
	if s.cache != nil {
		key, entry = s.cache.lookup(p.inc.FrontierFingerprints(), p.window)
	}
	if entry != nil {
		p.inc.SetFrontier(entry.states)
		p.failed = !entry.ok
		s.tel.Add(telemetry.ServeCacheHits, 1)
	} else {
		ok, err := p.inc.ExtendComplete(h)
		if err != nil {
			p.errMsg = err.Error()
			return
		}
		p.failed = !ok
		if s.cache != nil && s.cache.put(key, ok, p.inc.FrontierStates()) {
			s.tel.Add(telemetry.ServeCacheEntries, 1)
		}
	}
	p.window = p.window[:0]
	p.completed = 0
	p.overflowed = false
	p.windows++
	s.tel.Add(telemetry.ServeWindowFlushes, 1)
	s.tel.Add(telemetry.ServeOpsChecked, int64(retiredOps))
	s.tel.Max(telemetry.ServeMaxFrontier, int64(p.inc.FrontierSize()))
	if p.failed && !p.alerted && s.cfg.OnVerdict != nil {
		p.alerted = true
		s.cfg.OnVerdict(w.verdict(p, true))
	}
}

// verdict renders the partition's current judgment. final marks verdicts
// that can no longer change (a failure, or the Close pass).
func (w *worker) verdict(p *part, final bool) PartitionVerdict {
	v := PartitionVerdict{
		Key:          p.key,
		Linearizable: !p.failed && p.errMsg == "",
		Final:        final,
		Err:          p.errMsg,
		Ops:          p.ops,
		Windows:      p.windows,
	}
	if p.inc != nil { // nil when the model's Init failed; errMsg says so
		v.Frontier = p.inc.FrontierSize()
	}
	return v
}

func (w *worker) control(msg *ctlMsg) {
	var reply ctlReply
	switch msg.kind {
	case ctlDrain:
		// nothing: reaching this point is the barrier
	case ctlStatus:
		for _, key := range w.sortedKeys() {
			p := w.parts[key]
			reply.verds = append(reply.verds, w.verdict(p, p.failed || p.errMsg != ""))
		}
	case ctlSnapshot:
		reply.parts, reply.err = w.snapshot()
	case ctlFinish:
		reply.verds, reply.err = w.finish(msg.stuck)
	case ctlHold:
		// Acknowledge first so the holder learns every worker is parked, then
		// wait for the release: queued work accumulates undrained meanwhile.
		msg.ack <- reply
		<-msg.hold
		return
	}
	msg.ack <- reply
}

func (w *worker) sortedKeys() []string {
	keys := make([]string, 0, len(w.parts))
	for k := range w.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finish judges every partition's residual window — including pending
// operations and the stream's stuck marker — producing the final verdicts.
func (w *worker) finish(stuck bool) ([]PartitionVerdict, error) {
	var out []PartitionVerdict
	for _, key := range w.sortedKeys() {
		p := w.parts[key]
		if !p.failed && p.errMsg == "" {
			h := &history.History{Events: p.window, Stuck: stuck}
			res, err := p.inc.Finish(h)
			if err != nil {
				p.errMsg = err.Error()
			} else {
				p.failed = !res.Linearizable
			}
			// The residual window's completed ops were just judged too.
			w.srv.tel.Add(telemetry.ServeOpsChecked, int64(p.completed))
		}
		v := w.verdict(p, true)
		if p.failed && !p.alerted && w.srv.cfg.OnVerdict != nil {
			p.alerted = true
			w.srv.cfg.OnVerdict(v)
		}
		out = append(out, v)
	}
	return out, nil
}
