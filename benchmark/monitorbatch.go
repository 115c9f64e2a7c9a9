package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
	"lineup/internal/obsfile"
)

// batchTrace is one recorded trace in the form `lineup monitor` reads it.
type batchTrace struct {
	id      string
	tr      *trace
	model   *monitor.Model
	payload []byte // JSONL
}

// monitorBatch is `lineup monitor` on recorded traces: ReadTrace then
// monitor.Check with default options, once per trace per pass. No scheduler,
// no explorer: WGL does all the work, super-linear in trace length on the
// queue and split P-compositionally on the set.
type monitorBatch struct {
	traces []batchTrace
	cal    *calibrator // set while the untraced region runs
}

func (w *monitorBatch) name() string { return "monitor-batch" }

// genTraces builds the two trace families; in each, the last trace carries
// the injected violation. WGL on the queue is quadratic in trace length and
// its search varies by ±20 % from one random trace to the next, so the queue
// family is many short traces rather than the issue's six of 6 000
// operations (1.6 s each on the reference box): the seed then moves the work
// of a pass by about 2 % and the median time of a trace by about 4 %.
func genTraces(cfg config, div int) ([]batchTrace, error) {
	queues, sets := cfg.pick(48, 2), cfg.pick(6, 2)
	queueOps, setOps := cfg.pick(1000, 200)/div, cfg.pick(20000, 400)/div
	var out []batchTrace
	for i := 0; i < queues; i++ {
		out = append(out, batchTrace{id: fmt.Sprintf("queue#%d", i), model: monitor.QueueModel(),
			tr: genQueueTrace(newRand(cfg.seed, 200+int64(i)), queueOps, 3, i == queues-1)})
	}
	for i := 0; i < sets; i++ {
		out = append(out, batchTrace{id: fmt.Sprintf("set#%d", i), model: monitor.SetModel(),
			tr: genSetTrace(newRand(cfg.seed, 300+int64(i)), setOps, 4, 64, i == sets-1)})
	}
	for i := range out {
		t := &out[i]
		if err := replayWitness(t.model, t.tr.Witness); err != nil {
			return nil, fmt.Errorf("monitor-batch %s: %w", t.id, err)
		}
		t.payload = jsonl(t.tr.Events)
	}
	return out, nil
}

func (w *monitorBatch) setup(cfg config) error {
	var err error
	if w.traces, err = genTraces(cfg, 1); err != nil {
		return err
	}
	warm, err := genTraces(cfg, 10)
	if err != nil {
		return err
	}
	for i := range warm {
		if _, _, err := warm[i].check(nil, monitor.Options{}); err != nil {
			return fmt.Errorf("monitor-batch warm-up: %w", err)
		}
	}
	return nil
}

func (w *monitorBatch) inputs() map[string]string {
	in := make(map[string]string)
	for _, t := range w.traces {
		in[t.id] = sha(t.payload)
	}
	return in
}

// check reads and judges one trace.
func (t *batchTrace) check(rec *recorder, opts monitor.Options) (*history.History, *monitor.Outcome, error) {
	id := rec.start("obsfile.read_trace", t.id, -1)
	h, err := obsfile.ReadTrace(bytes.NewReader(t.payload))
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", t.id, err)
	}
	id = rec.start("monitor.check", t.id, -1)
	out, err := monitor.Check(t.model, h, opts)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", t.id, err)
	}
	return h, out, nil
}

func (w *monitorBatch) passDetail(rec *recorder) (passOut, []*history.History, []*monitor.Outcome, error) {
	var out passOut
	var hs []*history.History
	var outs []*monitor.Outcome
	sw := w.cal.stopwatch()
	for i := range w.traces {
		t := &w.traces[i]
		t0 := time.Now()
		h, res, err := t.check(rec, monitor.Options{})
		if err != nil {
			return out, nil, nil, fmt.Errorf("monitor-batch %w", err)
		}
		out.verdicts = append(out.verdicts, time.Since(t0).Seconds()*1000)
		out.ops += t.tr.Ops
		out.expect(res.Linearizable == !t.tr.Bad, "%s: linearizable=%v, generated bad=%v", t.id, res.Linearizable, t.tr.Bad)
		hs, outs = append(hs, h), append(outs, res)
		w.cal.tick()
	}
	out.wall = sw.elapsed()
	return out, hs, outs, nil
}

func (w *monitorBatch) pass(rec *recorder) (passOut, error) {
	out, _, _, err := w.passDetail(rec)
	return out, err
}

func (w *monitorBatch) measure(cfg config, cal *calibrator) (*e2e, error) {
	w.cal = cal
	defer func() { w.cal = nil }()
	return measurePasses(cfg.seconds, cal, w.pass)
}

// decodeJSONL times obsfile.RawReader alone over the payloads and returns
// nanoseconds per event and bytes per event.
func decodeJSONL(rec *recorder, payloads [][]byte) (nsPerEvent, bytesPerEvent float64, err error) {
	events, size := 0, 0
	id := rec.start("obsfile.jsonl_decode", "all", -1)
	for _, p := range payloads {
		rr := obsfile.NewRawReader(bytes.NewReader(p))
		for {
			_, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			events++
		}
		size += len(p)
	}
	d := rec.end(id)
	return ratio(float64(d.Nanoseconds()), float64(events)), ratio(float64(size), float64(events)), nil
}

func (w *monitorBatch) layers(cfg config, rec *recorder) (map[string]float64, tally, error) {
	m := make(map[string]float64)
	untraced, err := w.pass(nil)
	if err != nil {
		return nil, tally{}, err
	}
	traced, hs, outs, err := w.passDetail(rec)
	if err != nil {
		return nil, tally{}, err
	}
	t := passPair(m, untraced, traced, len(w.traces))

	var visited, memo int
	for _, o := range outs {
		visited += o.Stats.Visited
		memo += o.Stats.MemoHits
	}
	ops := float64(traced.ops)
	m["monitor.wgl_us_per_op"] = ratio(rec.total("monitor.check").Seconds()*1e6, ops)
	m["monitor.visited_per_op"] = ratio(float64(visited), ops)
	m["monitor.memo_hit_ratio"] = ratio(float64(memo), float64(visited+memo))

	// The partitioned-vs-unpartitioned ratio of Horn & Kroening, on the
	// first (linearizable) set trace.
	for i := range w.traces {
		tr := &w.traces[i]
		if tr.model.Partition == nil || tr.tr.Bad {
			continue
		}
		id := rec.start("monitor.check_partitioned", tr.id, -1)
		if _, err := monitor.Check(tr.model, hs[i], monitor.Options{}); err != nil {
			return nil, t, err
		}
		part := rec.end(id)
		id = rec.start("monitor.check_nopartition", tr.id, -1)
		if _, err := monitor.Check(tr.model, hs[i], monitor.Options{NoPartition: true}); err != nil {
			return nil, t, err
		}
		m["monitor.nopartition_ratio"] = ratio(rec.end(id).Seconds(), part.Seconds())
		break
	}

	// The fast monitors on recorded traces. A failed TryDequeue leaves the
	// queue monitor's fragment, so the queue hit ratio is expected to be 0.
	var queueTried, queueHits, fastOps int
	id := rec.start("fast.check", "all", -1)
	for i := range w.traces {
		tr := &w.traces[i]
		kind, ok := fast.KindFor(tr.model.Name)
		if !ok {
			continue
		}
		_, err := fast.Check(kind, hs[i])
		if err != nil && !errors.Is(err, fast.ErrAmbiguous) {
			return nil, t, err
		}
		fastOps += tr.tr.Ops
		if kind == fast.KindQueue {
			queueTried++
			if err == nil {
				queueHits++
			}
		}
	}
	m["fast.us_per_op"] = ratio(rec.end(id).Seconds()*1e6, float64(fastOps))
	m["fast.hit_ratio.trace"] = ratio(float64(queueHits), float64(queueTried))

	payloads := make([][]byte, len(w.traces))
	for i := range w.traces {
		payloads[i] = w.traces[i].payload
	}
	m["obsfile.jsonl_decode_ns_per_event"], m["obsfile.jsonl_bytes_per_event"], err = decodeJSONL(rec, payloads)
	return m, t, err
}
