package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
)

const (
	frameBatch    = 512 // events per LUB1 frame, the FrameWriter default
	replayWindow  = 128
	replayParts   = 16
	replayRepeats = 16
	freshWindow   = 64
	freshSlots    = 32
	freshThreads  = 3
)

// serveStats turns a finished server's counters into per-layer metrics.
func serveStats(m map[string]float64, st serve.Stats) {
	m["serve.window_flushes"] = float64(st.WindowFlushes)
	m["serve.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.WindowFlushes))
	m["serve.max_frontier"] = float64(st.MaxFrontier)
	m["serve.max_window_events"] = float64(st.MaxWindowEvents)
	m["serve.shed_events"] = float64(st.EventsShed)
}

// checkSummary checks what must hold of every finished serve run: nothing
// shed, every routed event applied, no partition in error. A partition that
// hit the monitor's state limit aborts the run: its verdict is missing, and
// the workload was sized so that this cannot happen.
func checkSummary(t *tally, name string, sum *serve.Summary, wantOps int) error {
	st := sum.Stats
	t.expect(st.EventsShed == 0, "%s: %d events shed", name, st.EventsShed)
	t.expect(st.EventsRouted == st.EventsIngested, "%s: routed %d of %d ingested events", name, st.EventsRouted, st.EventsIngested)
	t.expect(st.OpsChecked == int64(wantOps), "%s: %d operations checked, %d sent", name, st.OpsChecked, wantOps)
	for _, v := range sum.Verdicts {
		if strings.Contains(v.Err, monitor.ErrStateLimit.Error()) {
			return fmt.Errorf("%s: partition %s: %s", name, v.Key, v.Err)
		}
		t.expect(v.Err == "", "%s: partition %s: %s", name, v.Key, v.Err)
	}
	return nil
}

// serveReplay is the high-sharing serve regime: a small explorer-harvested
// corpus replayed round-robin over 16 partitions, so nearly every window
// transition is a cache hit and decode → tracker → routing is the whole
// cost.
type serveReplay struct {
	cfg     config
	events  []obsfile.TraceEvent
	ops     int
	payload []byte // LUB1 frames
	warm    []byte
	cal     *calibrator // set while the untraced region runs
}

func (w *serveReplay) name() string { return "serve-replay" }

// harvest explores the corrected Fig. 1 scenario and returns its distinct
// complete histories, as internal/bench does for its serve rows.
func harvest() ([]*history.History, error) {
	cc := causeCase(bench.CauseB)
	var hists []*history.History
	err := core.ExploreHistories(cc.Counterpart, cc.Test, core.Options{PreemptionBound: cc.Bound},
		func(h *history.History) bool {
			if !h.Stuck {
				hists = append(hists, h)
			}
			return len(hists) < 256
		})
	if err != nil {
		return nil, fmt.Errorf("serve-replay: harvesting the corpus: %w", err)
	}
	if len(hists) == 0 {
		return nil, fmt.Errorf("serve-replay: the explorer produced no complete history")
	}
	return hists, nil
}

func (w *serveReplay) setup(cfg config) error {
	w.cfg = cfg
	hists, err := harvest()
	if err != nil {
		return err
	}
	// Every history came from the corrected class, so the known answer is
	// PASS; batch WGL — not the incremental checker the server runs —
	// confirms it for each history before any is replayed.
	for i, h := range hists {
		out, err := monitor.Check(monitor.QueueModel(), h, monitor.Options{})
		if err != nil || !out.Linearizable {
			return fmt.Errorf("serve-replay: harvested history %d is not linearizable against the queue model (err %v)", i, err)
		}
	}
	target := cfg.pick(125_000, 2_500)
	w.events, w.ops = replayCorpus(hists, replayParts, target)
	if w.payload, err = frames(w.events, frameBatch); err != nil {
		return err
	}
	warmEvs, _ := replayCorpus(hists, replayParts, target/10)
	if w.warm, err = frames(warmEvs, frameBatch); err != nil {
		return err
	}
	srv, err := w.server()
	if err != nil {
		return err
	}
	if _, err := srv.IngestFrames(bytes.NewReader(w.warm)); err != nil {
		return fmt.Errorf("serve-replay warm-up: %w", err)
	}
	_, err = srv.Close()
	return err
}

func (w *serveReplay) inputs() map[string]string {
	return map[string]string{"frames": sha(w.payload)}
}

func (w *serveReplay) server() (*serve.Server, error) {
	return serve.New(serve.Config{Model: monitor.QueueModel(), Workers: w.cfg.workers, WindowOps: replayWindow})
}

// pass ingests the payload sixteen times back to back into one server with
// the checker pool running, and ends at Close. After each repeat it waits
// for Drain: the time from the repeat's first byte to every one of its
// windows retired is that batch's time to verdict.
func (w *serveReplay) passDetail(rec *recorder) (passOut, *serve.Summary, error) {
	var out passOut
	srv, err := w.server()
	if err != nil {
		return out, nil, err
	}
	sw := w.cal.stopwatch()
	for k := 0; k < replayRepeats; k++ {
		t0 := time.Now()
		id := rec.start("serve.ingest", fmt.Sprint(k), -1)
		_, err := srv.IngestFrames(bytes.NewReader(w.payload))
		rec.end(id)
		if err == nil {
			id = rec.start("serve.drain", fmt.Sprint(k), -1)
			err = srv.Drain()
			rec.end(id)
		}
		if err != nil {
			_, _ = srv.Close()
			return out, nil, fmt.Errorf("serve-replay: %w", err)
		}
		out.verdicts = append(out.verdicts, time.Since(t0).Seconds()*1000)
		w.cal.tick() // the server is drained and idle here
	}
	id := rec.start("serve.drain", "close", -1)
	sum, err := srv.Close()
	rec.end(id)
	out.wall = sw.elapsed()
	if err != nil {
		return out, nil, fmt.Errorf("serve-replay: %w", err)
	}
	out.ops = replayRepeats * w.ops
	if err := checkSummary(&out.tally, "serve-replay", sum, out.ops); err != nil {
		return out, nil, err
	}
	out.expect(len(sum.Verdicts) == replayParts, "serve-replay: %d partitions, want %d", len(sum.Verdicts), replayParts)
	for _, v := range sum.Verdicts {
		out.expect(v.Linearizable, "serve-replay: partition %s judged not linearizable", v.Key)
	}
	return out, sum, nil
}

func (w *serveReplay) pass(rec *recorder) (passOut, error) {
	out, _, err := w.passDetail(rec)
	return out, err
}

func (w *serveReplay) measure(cfg config, cal *calibrator) (*e2e, error) {
	w.cal = cal
	defer func() { w.cal = nil }()
	return measurePasses(cfg.seconds, cal, w.pass)
}

func (w *serveReplay) layers(cfg config, rec *recorder) (map[string]float64, tally, error) {
	m := make(map[string]float64)
	untraced, err := w.pass(nil)
	if err != nil {
		return nil, tally{}, err
	}
	traced, sum, err := w.passDetail(rec)
	if err != nil {
		return nil, tally{}, err
	}
	t := passPair(m, untraced, traced, replayParts)
	m["serve.ingest_s"] = rec.total("serve.ingest").Seconds()
	m["serve.drain_s"] = rec.total("serve.drain").Seconds()
	serveStats(m, sum.Stats)

	// Ingest alone: the checker pool is parked, so decode, validation and
	// routing are timed without the window checks competing for the CPUs.
	held, err := serve.New(serve.Config{Model: monitor.QueueModel(), Workers: cfg.workers, WindowOps: replayWindow,
		QueueDepth: len(w.events)/frameBatch + 64})
	if err != nil {
		return nil, t, err
	}
	release, err := held.HoldWorkers()
	if err != nil {
		return nil, t, err
	}
	id := rec.start("serve.ingest_held", "0", -1)
	_, err = held.IngestFrames(bytes.NewReader(w.payload))
	d := rec.end(id)
	release()
	if _, cerr := held.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, t, fmt.Errorf("serve-replay: ingest with held workers: %w", err)
	}
	m["serve.ingest_only_ops_per_s"] = ratio(float64(w.ops), d.Seconds())

	// The obsfile layer alone, on the same events.
	n := float64(len(w.events))
	id = rec.start("obsfile.frame_decode", "all", -1)
	fr := obsfile.NewFrameReader(bytes.NewReader(w.payload))
	for {
		if _, err := fr.NextBatch(); err == io.EOF {
			break
		} else if err != nil {
			return nil, t, err
		}
	}
	m["obsfile.frame_decode_ns_per_event"] = ratio(float64(rec.end(id).Nanoseconds()), n)
	m["obsfile.frame_bytes_per_event"] = ratio(float64(len(w.payload)), n)
	m["obsfile.jsonl_decode_ns_per_event"], m["obsfile.jsonl_bytes_per_event"], err = decodeJSONL(rec, [][]byte{jsonl(w.events)})
	if err != nil {
		return nil, t, err
	}
	tracker := obsfile.NewShardedTracker()
	id = rec.start("obsfile.tracker", "all", -1)
	for i, ev := range w.events {
		if _, err := tracker.Apply(ev, i+1); err != nil {
			return nil, t, err
		}
	}
	m["obsfile.tracker_ns_per_event"] = ratio(float64(rec.end(id).Nanoseconds()), n)
	return m, t, nil
}

// serveFresh is the no-sharing serve regime: every session is a fresh random
// queue history, so no window transition repeats, the frontier is wide, and
// monitor.Incremental and queue wait are the cost.
type serveFresh struct {
	cfg      config
	stream   *freshStream
	byKey    map[string]*session
	first    map[string]int // key → index of the session's first event
	cutA     int            // events in the closed-loop payload
	payloadA []byte
	warm     []byte
	windows  [][][]history.Event // per session (stream order), its windows under serve's rule
}

func (w *serveFresh) name() string { return "serve-fresh" }

// rates are the paced open-loop rates in operations per second; gatedRate is
// the one whose alert latency is the workload's time to verdict. The issue
// gated 60k ops/s. There the single checker worker is busy enough that queue
// wait doubles any slowdown of the box: the p90 of identical runs ranged from
// 2.0 to 5.5 ms, against 1.5 to 1.7 ms at 30k.
var rates = []float64{30_000, 60_000, 120_000, 240_000}

const gatedRate = 30_000

func rateTag(r float64) string { return fmt.Sprintf("r%dk", int(r)/1000) }

// cutAfter returns the number of leading events that hold the given number
// of completed operations.
func cutAfter(evs []obsfile.TraceEvent, ops int) int {
	for i, ev := range evs {
		if ev.K == "ret" {
			if ops--; ops == 0 {
				return i + 1
			}
		}
	}
	return len(evs)
}

// splitWindows applies serve's documented retirement rule to a stream — a
// partition's window retires when the partition is quiescent and holds at
// least window completed operations — and returns each partition's retired
// windows, in order of the partition's first event. It shares no code with
// the generator's own bookkeeping, which the tests compare it with.
func splitWindows(evs []obsfile.TraceEvent, window int) (keys []string, windows [][][]history.Event, err error) {
	type acc struct {
		idx             int
		cur             []history.Event
		open, completed int
	}
	tracker := obsfile.NewStreamTracker()
	parts := make(map[string]*acc)
	for i, raw := range evs {
		ev, err := tracker.Apply(raw, i+1)
		if err != nil {
			return nil, nil, err
		}
		a := parts[ev.Part]
		if a == nil {
			a = &acc{idx: len(keys)}
			parts[ev.Part] = a
			keys = append(keys, ev.Part)
			windows = append(windows, nil)
		}
		a.cur = append(a.cur, ev.HistoryEvent())
		if ev.Kind == history.Call {
			a.open++
		} else {
			a.open--
			a.completed++
		}
		if a.open == 0 && a.completed >= window {
			windows[a.idx] = append(windows[a.idx], a.cur)
			a.cur, a.completed = nil, 0
		}
	}
	return keys, windows, nil
}

func (w *serveFresh) setup(cfg config) error {
	w.cfg = cfg
	// Long enough for the longest paced region: half the run at the gated
	// rate, or in the traced run a sixth of it at the top rate.
	opsA := cfg.pick(125_000, 5_000)
	ops := max(opsA, int(gatedRate*cfg.seconds/2))
	if cfg.traced {
		ops = max(opsA, int(rates[len(rates)-1]*cfg.seconds/float64(len(rates)+2)))
	}
	w.stream = genFreshStream(newRand(cfg.seed, 400), ops, freshSlots, freshThreads, freshWindow)
	evs := w.stream.Events
	model := monitor.QueueModel()
	w.byKey = make(map[string]*session, len(w.stream.Sessions))
	for _, s := range w.stream.Sessions {
		if err := replayWitness(model, s.Witness); err != nil {
			return fmt.Errorf("serve-fresh session %s: %w", s.Key, err)
		}
		w.byKey[s.Key] = s
	}
	w.first = make(map[string]int, len(w.byKey))
	for i, ev := range evs {
		if ev.K == "call" {
			if _, ok := w.first[ev.P]; !ok {
				w.first[ev.P] = i
			}
		}
	}
	var err error
	if _, w.windows, err = splitWindows(evs, freshWindow); err != nil {
		return fmt.Errorf("serve-fresh: %w", err)
	}
	w.cutA = cutAfter(evs, opsA)
	if w.payloadA, err = frames(evs[:w.cutA], frameBatch); err != nil {
		return err
	}
	if w.warm, err = frames(evs[:cutAfter(evs, opsA/10)], frameBatch); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Model: model, Workers: cfg.workers, WindowOps: freshWindow})
	if err != nil {
		return err
	}
	if _, err := srv.IngestFrames(bytes.NewReader(w.warm)); err != nil {
		return fmt.Errorf("serve-fresh warm-up: %w", err)
	}
	_, err = srv.Close()
	return err
}

func (w *serveFresh) inputs() map[string]string {
	return map[string]string{"frames": sha(w.payloadA)}
}

// alertLog records OnVerdict calls; workers call it concurrently.
type alertLog struct {
	mu sync.Mutex
	at map[string]time.Time // first alert per partition
	n  map[string]int
}

func newAlertLog() *alertLog {
	return &alertLog{at: make(map[string]time.Time), n: make(map[string]int)}
}

func (a *alertLog) onVerdict(v serve.PartitionVerdict) {
	now := time.Now()
	a.mu.Lock()
	if a.n[v.Key]++; a.n[v.Key] == 1 {
		a.at[v.Key] = now
	}
	a.mu.Unlock()
}

// judge checks the server's answer for the first cut events of the stream
// against what the generator knows: a session whose closer was sent is not
// linearizable and raised exactly one alert; every other session that sent
// anything is linearizable and raised none.
func (w *serveFresh) judge(t *tally, cut int, alerts *alertLog, sum *serve.Summary) {
	verdict := make(map[string]serve.PartitionVerdict, len(sum.Verdicts))
	for _, v := range sum.Verdicts {
		verdict[v.Key] = v
	}
	for _, s := range w.stream.Sessions {
		if first, started := w.first[s.Key]; !started || first >= cut {
			continue
		}
		v, seen := verdict[s.Key]
		finished := s.Closer >= 0 && s.Closer < cut
		wantAlerts := 0
		if finished {
			wantAlerts = 1
		}
		t.expect(seen && v.Linearizable == !finished && alerts.n[s.Key] == wantAlerts,
			"serve-fresh session %s: finished=%v, judged linearizable=%v (present %v), %d alerts",
			s.Key, finished, v.Linearizable, seen, alerts.n[s.Key])
	}
}

// opsIn counts the completed operations among the first cut events.
func opsIn(evs []obsfile.TraceEvent, cut int) int {
	n := 0
	for _, ev := range evs[:cut] {
		if ev.K == "ret" {
			n++
		}
	}
	return n
}

// passDetail is the closed loop: the pre-encoded frames go in as fast as
// IngestFrames takes them, and the pass ends when Close returns.
func (w *serveFresh) passDetail(rec *recorder) (passOut, *serve.Summary, error) {
	var out passOut
	alerts := newAlertLog()
	srv, err := serve.New(serve.Config{Model: monitor.QueueModel(), Workers: w.cfg.workers, WindowOps: freshWindow,
		OnVerdict: alerts.onVerdict})
	if err != nil {
		return out, nil, err
	}
	start := time.Now()
	id := rec.start("serve.ingest", "A", -1)
	_, err = srv.IngestFrames(bytes.NewReader(w.payloadA))
	rec.end(id)
	if err != nil {
		_, _ = srv.Close()
		return out, nil, fmt.Errorf("serve-fresh: %w", err)
	}
	id = rec.start("serve.drain", "A", -1)
	sum, err := srv.Close()
	rec.end(id)
	out.wall = time.Since(start)
	if err != nil {
		return out, nil, fmt.Errorf("serve-fresh: %w", err)
	}
	out.ops = opsIn(w.stream.Events, w.cutA)
	if err := checkSummary(&out.tally, "serve-fresh", sum, out.ops); err != nil {
		return out, nil, err
	}
	w.judge(&out.tally, w.cutA, alerts, sum)
	return out, sum, nil
}

func (w *serveFresh) pass(rec *recorder) (passOut, error) {
	out, _, err := w.passDetail(rec)
	return out, err
}

// paced is one open-loop region.
type paced struct {
	tally
	rate      float64
	p50       []float64 // median alert latency per slice of the region, ms
	latencies []float64 // every alert latency, ms
	lateMS    []float64 // how late each batch left the generator
	backlog   []float64 // routed − applied, sampled every 50 ms
	depth     []float64 // queued items over all workers, same samples
	stats     serve.Stats
}

const (
	tick       = 250 * time.Microsecond
	sampleTick = 50 * time.Millisecond
	slices     = 8
)

// runPaced sends the stream at a fixed rate for dur: on every tick it hands
// IngestBatch the events that have come due, whether or not the server has
// caught up. An alert's latency runs from the due time of the session's
// window-closing return to the OnVerdict call, so it counts queue wait and
// the window check, and any time the event waited in a stalled generator.
func (w *serveFresh) runPaced(rate float64, dur time.Duration) (*paced, error) {
	p := &paced{rate: rate}
	evs := w.stream.Events
	evRate := 2 * rate // every operation is a call and a return
	limit := int(evRate * dur.Seconds())
	if limit > len(evs) {
		limit = len(evs)
	}
	alerts := newAlertLog()
	srv, err := serve.New(serve.Config{Model: monitor.QueueModel(), Workers: w.cfg.workers, WindowOps: freshWindow,
		OnVerdict: alerts.onVerdict})
	if err != nil {
		return nil, err
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tk := time.NewTicker(sampleTick)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				st := srv.Stats()
				p.backlog = append(p.backlog, float64(st.EventsRouted-st.EventsApplied))
				d := 0
				for _, q := range st.QueueDepths {
					d += q
				}
				p.depth = append(p.depth, float64(d))
			}
		}
	}()
	conn := srv.NewConn()
	due := func(i int) time.Duration { return time.Duration(float64(i) / evRate * float64(time.Second)) }
	start := time.Now()
	var ingestErr error
	for sent := 0; sent < limit; {
		now := time.Since(start)
		upTo := int(now.Seconds() * evRate)
		if upTo > limit {
			upTo = limit
		}
		if upTo > sent {
			p.lateMS = append(p.lateMS, (now-due(sent)).Seconds()*1000)
			if _, ingestErr = conn.IngestBatch(evs[sent:upTo]); ingestErr != nil {
				break
			}
			sent = upTo
		}
		time.Sleep(tick)
	}
	conn.Release()
	close(stop)
	<-sampled
	sum, err := srv.Close()
	if ingestErr != nil {
		err = ingestErr
	}
	if err != nil {
		return nil, fmt.Errorf("serve-fresh at %.0f ops/s: %w", rate, err)
	}
	p.stats = sum.Stats
	if err := checkSummary(&p.tally, "serve-fresh "+rateTag(rate), sum, opsIn(evs, limit)); err != nil {
		return nil, err
	}
	w.judge(&p.tally, limit, alerts, sum)
	bySlice := make([][]float64, slices)
	for key, at := range alerts.at {
		s := w.byKey[key]
		if s == nil || s.Closer < 0 || s.Closer >= limit {
			continue // already counted as a failure by judge
		}
		lat := (at.Sub(start) - due(s.Closer)).Seconds() * 1000
		p.latencies = append(p.latencies, lat)
		i := int(float64(s.Closer) / float64(limit) * slices)
		bySlice[i] = append(bySlice[i], lat)
	}
	for _, ls := range bySlice {
		if len(ls) > 0 {
			p.p50 = append(p.p50, percentile(ls, 50))
		}
	}
	return p, nil
}

// sustained applies the issue's rule for a rate the server keeps up with:
// alert p90 within 20 ms, the generator at most 10 ms late at its 95th
// percentile, nothing shed, and a backlog that is not growing — its last
// quarter at most 1 000 events above its second.
func (p *paced) sustained() bool {
	q := len(p.backlog) / 4
	growing := q > 0 && median(p.backlog[3*q:]) > median(p.backlog[q:2*q])+1000
	return percentile(p.latencies, 90) <= 20 && percentile(p.lateMS, 95) <= 10 &&
		p.stats.EventsShed == 0 && !growing
}

// measure spends half the run on closed-loop passes and half on the open
// loop at the gated rate. The closed-loop times are calibrated; the alert
// latencies of the open loop are not — at this rate they are timer ticks and
// wake-ups, which do not follow either kernel.
func (w *serveFresh) measure(cfg config, cal *calibrator) (*e2e, error) {
	e, err := measurePasses(cfg.seconds/2, cal, w.pass)
	if err != nil {
		return nil, err
	}
	p, err := w.runPaced(gatedRate, time.Duration(cfg.seconds/2*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	e.add(p.tally)
	e.p50 = p.p50
	return e, nil
}

func (w *serveFresh) layers(cfg config, rec *recorder) (map[string]float64, tally, error) {
	m := make(map[string]float64)
	untraced, err := w.pass(nil)
	if err != nil {
		return nil, tally{}, err
	}
	traced, sum, err := w.passDetail(rec)
	if err != nil {
		return nil, tally{}, err
	}
	t := passPair(m, untraced, traced, untraced.attempted)
	m["serve.ingest_s"] = rec.total("serve.ingest").Seconds()
	m["serve.drain_s"] = rec.total("serve.drain").Seconds()
	serveStats(m, sum.Stats)

	// The window checks alone: the first sessions' windows, cut by serve's
	// rule, fed straight to monitor.Incremental.
	var windowUS []float64
	frontier := 0
	id := rec.start("monitor.incremental", "sample", -1)
	for _, wins := range w.windows[:min(len(w.windows), 200)] {
		inc, err := monitor.NewIncremental(monitor.QueueModel(), monitor.Options{NoPartition: true})
		if err != nil {
			return nil, t, err
		}
		for _, win := range wins {
			t0 := time.Now()
			if _, err := inc.ExtendComplete(&history.History{Events: win}); err != nil {
				return nil, t, fmt.Errorf("serve-fresh: window check: %w", err)
			}
			windowUS = append(windowUS, time.Since(t0).Seconds()*1e6)
			frontier = max(frontier, inc.FrontierSize())
		}
	}
	rec.end(id)
	m["monitor.inc_window_us"] = median(windowUS)
	m["monitor.frontier_max"] = float64(frontier)

	dur := time.Duration(cfg.seconds / float64(len(rates)+2) * float64(time.Second))
	for _, rate := range rates {
		id := rec.start("serve.paced", rateTag(rate), -1)
		p, err := w.runPaced(rate, dur)
		rec.end(id)
		if err != nil {
			return nil, t, err
		}
		t.add(p.tally)
		tag := rateTag(rate)
		m["driver.late_p95_ms."+tag] = percentile(p.lateMS, 95)
		m["serve.backlog_end."+tag] = 0
		if n := len(p.backlog); n > 0 {
			m["serve.backlog_end."+tag] = p.backlog[n-1]
		}
		m["serve.alert_p50_ms."+tag] = percentile(p.latencies, 50)
		switch rate {
		case gatedRate:
			m["alert_p50_ms"] = percentile(p.latencies, 50)
			m["alert_p90_ms"] = percentile(p.latencies, 90)
			m["verdict_p90_ms"] = m["alert_p90_ms"]
		case 60_000:
			m["serve.alert_p99_ms."+tag] = percentile(p.latencies, 99)
			m["serve.queue_depth_p95"] = percentile(p.depth, 95)
		}
		if p.sustained() {
			m["max_rate_ok"] = rate
		}
	}
	return m, t, nil
}
