package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
	"lineup/internal/telemetry"
)

// genPartition generates a random complete single-partition register history
// as raw trace events: results are assigned at return time by stepping a
// live model, so the history is linearizable by construction; corrupt flips
// one result. Threads are drawn from [base, base+threads) so several
// partitions can interleave in one globally well-formed trace.
func genPartition(rng *rand.Rand, key string, base, nOps int, corrupt bool) []obsfile.TraceEvent {
	m := monitor.RegisterModel()
	state := m.Init()
	open := map[int]string{}
	const threads = 3
	var evs []obsfile.TraceEvent
	issued := 0
	for issued < nOps || len(open) > 0 {
		th := base + rng.Intn(threads)
		if op, busy := open[th]; busy && (rng.Intn(2) == 0 || issued >= nOps) {
			res, next, err := m.Step(state, op)
			if err != nil {
				panic(err)
			}
			state = next
			evs = append(evs, obsfile.TraceEvent{T: th, K: "ret", Op: op, Res: res})
			delete(open, th)
		} else if !busy && issued < nOps {
			var op string
			if rng.Intn(2) == 0 {
				op = fmt.Sprintf("Write(%d)", 1+rng.Intn(3))
			} else {
				op = "Read()"
			}
			evs = append(evs, obsfile.TraceEvent{T: th, K: "call", Op: op, P: key})
			open[th] = op
			issued++
		}
	}
	if corrupt {
		rets := []int{}
		for i, e := range evs {
			if e.K == "ret" {
				rets = append(rets, i)
			}
		}
		i := rets[rng.Intn(len(rets))]
		for _, wrong := range []string{"7", "ok"} {
			if wrong != evs[i].Res {
				evs[i].Res = wrong
				break
			}
		}
	}
	return evs
}

// interleave merges per-partition event sequences into one trace, preserving
// each partition's order.
func interleave(rng *rand.Rand, parts [][]obsfile.TraceEvent) []obsfile.TraceEvent {
	var out []obsfile.TraceEvent
	pos := make([]int, len(parts))
	for {
		live := []int{}
		for i := range parts {
			if pos[i] < len(parts[i]) {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return out
		}
		i := live[rng.Intn(len(live))]
		out = append(out, parts[i][pos[i]])
		pos[i]++
	}
}

// batchVerdict checks one partition's sub-history with the batch monitor.
func batchVerdict(t *testing.T, m *monitor.Model, evs []obsfile.TraceEvent, key string) bool {
	t.Helper()
	tr := obsfile.NewStreamTracker()
	h := &history.History{}
	line := 0
	for _, ev := range evs {
		line++
		sev, err := tr.Apply(ev, line)
		if err != nil {
			t.Fatalf("tracker: %v", err)
		}
		if sev.Part == key && !sev.Stuck {
			h.Events = append(h.Events, sev.HistoryEvent())
		}
	}
	out, err := monitor.Check(m, h, monitor.Options{NoPartition: true})
	if err != nil {
		t.Fatalf("batch Check: %v", err)
	}
	return out.Linearizable
}

func ingestAll(t *testing.T, s *serve.Server, evs []obsfile.TraceEvent) {
	t.Helper()
	for _, ev := range evs {
		if err := s.Ingest(ev); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
}

// TestServeMatchesBatch: the tentpole equivalence — for random multi-
// partition traces (some corrupted), every partition's streaming verdict
// equals the batch monitor's verdict on that partition's sub-history.
func TestServeMatchesBatch(t *testing.T) {
	m := monitor.RegisterModel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		keys := []string{"a", "b", "c"}
		parts := make([][]obsfile.TraceEvent, len(keys))
		for i, k := range keys {
			parts[i] = genPartition(rng, k, i*10, 3+rng.Intn(8), rng.Intn(2) == 1)
		}
		trace := interleave(rng, parts)
		s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ingestAll(t, s, trace)
		sum, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if len(sum.Verdicts) != len(keys) {
			t.Fatalf("trial %d: %d verdicts, want %d", trial, len(sum.Verdicts), len(keys))
		}
		for i, k := range keys {
			want := batchVerdict(t, m, trace, k)
			var got *serve.PartitionVerdict
			for j := range sum.Verdicts {
				if sum.Verdicts[j].Key == k {
					got = &sum.Verdicts[j]
				}
			}
			if got == nil {
				t.Fatalf("trial %d: no verdict for partition %q", trial, k)
			}
			if got.Err != "" {
				t.Fatalf("trial %d partition %q: error %q", trial, k, got.Err)
			}
			if got.Linearizable != want {
				t.Fatalf("trial %d partition %q: serve says %v, batch says %v\nsub-history ops=%d",
					trial, k, got.Linearizable, want, len(parts[i])/2)
			}
		}
	}
}

// TestServeInitPanicContained: a model whose Init panics errors every
// partition instead of killing the worker goroutine (and with it the
// process) — each partition still reports exactly one final verdict, Close
// returns, and the accounting invariant holds.
func TestServeInitPanicContained(t *testing.T) {
	m := monitor.RegisterModel()
	m.Init = func() any { panic("init boom") }
	rng := rand.New(rand.NewSource(17))
	keys := []string{"a", "b", "c"}
	parts := make([][]obsfile.TraceEvent, len(keys))
	for i, k := range keys {
		parts[i] = genPartition(rng, k, i*10, 6, false)
	}
	trace := interleave(rng, parts)
	cp := filepath.Join(t.TempDir(), "serve.ckpt")
	s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2, CheckpointPath: cp})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, s, trace)
	// The live-status and snapshot passes see checker-less partitions too.
	if _, err := s.Verdicts(); err != nil {
		t.Fatalf("Verdicts: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(sum.Verdicts) != len(keys) {
		t.Fatalf("got %d verdicts, want one per partition (%d): %+v", len(sum.Verdicts), len(keys), sum.Verdicts)
	}
	for _, v := range sum.Verdicts {
		if !v.Final || v.Linearizable || !strings.Contains(v.Err, "init boom") || v.Frontier != 0 {
			t.Fatalf("partition %q: %+v, want a final errored verdict naming the panic", v.Key, v)
		}
	}
	st := sum.Stats
	if st.EventsIngested != int64(len(trace)) || st.EventsRouted+st.EventsShed != st.EventsIngested {
		t.Fatalf("accounting: routed %d + shed %d != ingested %d (trace %d)",
			st.EventsRouted, st.EventsShed, st.EventsIngested, len(trace))
	}
}

// TestServeModelDerivedPartition: without explicit keys, routing falls back
// to the model's Partition function (set model: per-value keys).
func TestServeModelDerivedPartition(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.SetModel(), WindowOps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, s, []obsfile.TraceEvent{
		{T: 0, K: "call", Op: "Add(1)"}, {T: 0, K: "ret", Op: "Add(1)", Res: "true"},
		{T: 1, K: "call", Op: "Add(2)"}, {T: 1, K: "ret", Op: "Add(2)", Res: "true"},
		{T: 0, K: "call", Op: "Contains(1)"}, {T: 0, K: "ret", Op: "Contains(1)", Res: "true"},
	})
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sum.Linearizable || len(sum.Verdicts) != 2 {
		t.Fatalf("got linearizable=%v verdicts=%v, want true with partitions 1 and 2", sum.Linearizable, sum.Verdicts)
	}
}

// TestServeWholeObjectOpRejected: a whole-object observer (set Count) on a
// stream already split into named partitions breaks P-compositionality and
// must fail ingest, not silently misjudge.
func TestServeWholeObjectOpRejected(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.SetModel()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Ingest(obsfile.TraceEvent{T: 0, K: "call", Op: "Add(1)"}); err != nil {
		t.Fatalf("keyed op: %v", err)
	}
	err = s.Ingest(obsfile.TraceEvent{T: 1, K: "call", Op: "Count()"})
	if err == nil || !strings.Contains(err.Error(), "whole object") {
		t.Fatalf("Count() on a partitioned stream: err=%v, want whole-object rejection", err)
	}
	_, _ = s.Close()
}

// slowModel wraps the register model with a per-Step delay so the test can
// outrun the checker and force backpressure.
func slowModel(d time.Duration) *monitor.Model {
	m := monitor.RegisterModel()
	step := m.Step
	m.Step = func(state any, op string) (string, any, error) {
		time.Sleep(d)
		return step(state, op)
	}
	return m
}

// TestServeShedAccounting: under the shed policy every ingested event is
// accounted for — routed + shed equals the tracker's accepted count, sheds
// are counted, and a shed partition is reported Shed rather than judged.
func TestServeShedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []string{"a", "b", "c", "d"}
	parts := make([][]obsfile.TraceEvent, len(keys))
	for i, k := range keys {
		parts[i] = genPartition(rng, k, i*10, 40, false)
	}
	trace := interleave(rng, parts)
	col := telemetry.New()
	s, err := serve.New(serve.Config{
		Model:        slowModel(2 * time.Millisecond),
		Workers:      2,
		WindowOps:    1,
		QueueDepth:   4,
		Backpressure: serve.ShedOnFull,
		NoDedup:      true, // cache hits would defeat the slow model
		Telemetry:    col,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, s, trace)
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := sum.Stats
	if st.EventsIngested != int64(len(trace)) {
		t.Fatalf("ingested %d, want %d", st.EventsIngested, len(trace))
	}
	if st.EventsRouted+st.EventsShed != st.EventsIngested {
		t.Fatalf("accounting: routed %d + shed %d != ingested %d", st.EventsRouted, st.EventsShed, st.EventsIngested)
	}
	if st.EventsApplied != st.EventsRouted {
		t.Fatalf("after close: applied %d != routed %d", st.EventsApplied, st.EventsRouted)
	}
	if st.EventsShed == 0 {
		t.Fatal("expected sheds with a slow model and queue depth 4")
	}
	// Stats is read out of a child of col, and this server is col's only
	// child: the shared collector holds the same numbers.
	for k, want := range map[telemetry.Counter]int64{
		telemetry.ServeEventsIngested: st.EventsIngested,
		telemetry.ServeEventsRouted:   st.EventsRouted,
		telemetry.ServeEventsShed:     st.EventsShed,
		telemetry.ServeEventsApplied:  st.EventsApplied,
		telemetry.ServePartitions:     st.Partitions,
		telemetry.ServeOpsChecked:     st.OpsChecked,
		telemetry.ServeWindowFlushes:  st.WindowFlushes,
	} {
		if got := col.Get(k); got != want {
			t.Errorf("shared collector: %s = %d, Stats says %d", k, got, want)
		}
	}
	shedParts := 0
	for _, v := range sum.Verdicts {
		if v.Shed {
			shedParts++
		}
	}
	if shedParts == 0 {
		t.Fatal("no partition reported Shed")
	}
}

// TestServeBlockNeverSheds: the block policy stalls the producer instead of
// dropping; every event is applied.
func TestServeBlockNeverSheds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trace := interleave(rng, [][]obsfile.TraceEvent{
		genPartition(rng, "a", 0, 30, false),
		genPartition(rng, "b", 10, 30, false),
	})
	s, err := serve.New(serve.Config{
		Model:      slowModel(time.Millisecond),
		Workers:    2,
		WindowOps:  1,
		QueueDepth: 2,
		NoDedup:    true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, s, trace)
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := sum.Stats
	if st.EventsShed != 0 || st.EventsApplied != int64(len(trace)) {
		t.Fatalf("block policy: shed=%d applied=%d want 0/%d", st.EventsShed, st.EventsApplied, len(trace))
	}
	if !sum.Linearizable {
		t.Fatalf("linearizable trace judged %v", sum.Verdicts)
	}
}

// TestServeBoundedWindow: a long linearizable stream is retired window by
// window — the widest window observed stays within the configured bound
// instead of growing with the stream.
func TestServeBoundedWindow(t *testing.T) {
	m := monitor.QueueModel()
	s, err := serve.New(serve.Config{Model: m, Workers: 1, WindowOps: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 2000; i++ {
		op := fmt.Sprintf("Enqueue(%d)", i%5)
		if err := s.Ingest(obsfile.TraceEvent{T: 0, K: "call", Op: op}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := s.Ingest(obsfile.TraceEvent{T: 0, K: "ret", Op: op, Res: "ok"}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sum.Linearizable {
		t.Fatalf("sequential enqueue stream judged %+v", sum.Verdicts)
	}
	if sum.Stats.WindowFlushes < 100 {
		t.Fatalf("window flushes = %d, want many", sum.Stats.WindowFlushes)
	}
	// Serial stream: quiescent after every return, so windows retire right
	// at the threshold (2*8 events) and never approach the overflow cap.
	if sum.Stats.MaxWindowEvents > 2*8 {
		t.Fatalf("max window = %d events, want <= 16", sum.Stats.MaxWindowEvents)
	}
	if sum.Stats.WindowOverflows != 0 {
		t.Fatalf("overflows = %d, want 0", sum.Stats.WindowOverflows)
	}
}

// TestServeCheckpointResume: checkpoint mid-stream, abandon the server, and
// resume a fresh one over the replayed stream — the final verdicts must be
// identical to an uninterrupted run (one partition is corrupted on purpose).
func TestServeCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := []string{"a", "b", "c"}
	parts := make([][]obsfile.TraceEvent, len(keys))
	for i, k := range keys {
		parts[i] = genPartition(rng, k, i*10, 20, i == 1)
	}
	trace := interleave(rng, parts)
	m := monitor.RegisterModel()

	uninterrupted, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, uninterrupted, trace)
	wantSum, err := uninterrupted.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}

	cpPath := filepath.Join(t.TempDir(), "serve.ckpt")
	first, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cut := len(trace) / 2
	ingestAll(t, first, trace[:cut])
	if err := first.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Abandon `first` without Close: the crash. (Its goroutines drain idle.)

	cfg, err := serve.Resume(serve.Config{Model: m, Workers: 2, WindowOps: 2, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if cfg.SkipEvents != int64(cut) {
		t.Fatalf("SkipEvents = %d, want %d", cfg.SkipEvents, cut)
	}
	resumed, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New(resumed): %v", err)
	}
	ingestAll(t, resumed, trace) // full replay; the first half is skipped
	gotSum, err := resumed.Close()
	if err != nil {
		t.Fatalf("Close(resumed): %v", err)
	}

	// The event counts continue across the resume: the resumed server reports
	// the whole stream, not only what it ingested itself.
	if g, w := gotSum.Stats, wantSum.Stats; g.EventsIngested != w.EventsIngested || g.EventsRouted != w.EventsRouted ||
		g.EventsShed != w.EventsShed || g.EventsApplied != w.EventsApplied {
		t.Fatalf("event counts after resume: ingested/routed/shed/applied %d/%d/%d/%d, uninterrupted %d/%d/%d/%d",
			g.EventsIngested, g.EventsRouted, g.EventsShed, g.EventsApplied,
			w.EventsIngested, w.EventsRouted, w.EventsShed, w.EventsApplied)
	}
	if len(gotSum.Verdicts) != len(wantSum.Verdicts) {
		t.Fatalf("verdict count: got %d want %d", len(gotSum.Verdicts), len(wantSum.Verdicts))
	}
	for i := range wantSum.Verdicts {
		w, g := wantSum.Verdicts[i], gotSum.Verdicts[i]
		if w.Key != g.Key || w.Linearizable != g.Linearizable || w.Err != g.Err || w.Ops != g.Ops {
			t.Fatalf("verdict %d differs after resume:\nuninterrupted: %+v\nresumed:       %+v", i, w, g)
		}
	}
	if gotSum.Linearizable != wantSum.Linearizable {
		t.Fatalf("summary verdict: got %v want %v", gotSum.Linearizable, wantSum.Linearizable)
	}
}

// TestServersSharingACollector: two servers given one collector each report
// their own Stats — a trace of a different length each, one of them shedding —
// the shared collector holds the sum of every count and the larger of each
// watermark, and routed + shed == ingested on each after Close.
func TestServersSharingACollector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	col := telemetry.New()
	var sums []*serve.Summary
	for i, cfg := range []serve.Config{
		{Model: monitor.RegisterModel(), Workers: 2, WindowOps: 2},
		{Model: slowModel(time.Millisecond), Workers: 2, WindowOps: 1, QueueDepth: 2, Backpressure: serve.ShedOnFull, NoDedup: true},
	} {
		var parts [][]obsfile.TraceEvent
		for p := 0; p <= 2*i+1; p++ {
			parts = append(parts, genPartition(rng, fmt.Sprintf("s%d-%d", i, p), p*10, 30, false))
		}
		trace := interleave(rng, parts)
		cfg.Telemetry = col
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ingestAll(t, s, trace)
		sum, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		st := sum.Stats
		if st.EventsIngested != int64(len(trace)) || st.EventsRouted+st.EventsShed != st.EventsIngested {
			t.Errorf("server %d: routed %d + shed %d, ingested %d, sent %d",
				i, st.EventsRouted, st.EventsShed, st.EventsIngested, len(trace))
		}
		sums = append(sums, sum)
	}
	a, b := sums[0].Stats, sums[1].Stats
	if a.EventsShed != 0 || b.EventsShed == 0 {
		t.Errorf("shed %d and %d events, want none and some", a.EventsShed, b.EventsShed)
	}
	for k, want := range map[telemetry.Counter]int64{
		telemetry.ServeEventsIngested:  a.EventsIngested + b.EventsIngested,
		telemetry.ServeEventsRouted:    a.EventsRouted + b.EventsRouted,
		telemetry.ServeEventsShed:      a.EventsShed + b.EventsShed,
		telemetry.ServeEventsApplied:   a.EventsApplied + b.EventsApplied,
		telemetry.ServePartitions:      a.Partitions + b.Partitions,
		telemetry.ServeOpsChecked:      a.OpsChecked + b.OpsChecked,
		telemetry.ServeWindowFlushes:   a.WindowFlushes + b.WindowFlushes,
		telemetry.ServeCacheHits:       a.CacheHits + b.CacheHits,
		telemetry.ServeCacheEntries:    a.CacheEntries + b.CacheEntries,
		telemetry.ServeMaxWindowEvents: max(a.MaxWindowEvents, b.MaxWindowEvents),
		telemetry.ServeMaxFrontier:     max(a.MaxFrontier, b.MaxFrontier),
	} {
		if got := col.Get(k); got != want {
			t.Errorf("shared collector: %s = %d, the two servers' Stats give %d", k, got, want)
		}
	}
}

// TestServeDedupCacheShares: many partitions running an identical workload
// share window transitions through the dedup cache.
func TestServeDedupCacheShares(t *testing.T) {
	m := monitor.RegisterModel()
	col := telemetry.New()
	s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 1, Telemetry: col})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for p := 0; p < 16; p++ {
		key := fmt.Sprintf("k%02d", p)
		th := p
		for i := 0; i < 4; i++ {
			ingestAll(t, s, []obsfile.TraceEvent{
				{T: th, K: "call", Op: "Write(1)", P: key},
				{T: th, K: "ret", Op: "Write(1)", Res: "ok"},
			})
		}
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sum.Linearizable {
		t.Fatalf("verdicts: %+v", sum.Verdicts)
	}
	if sum.Stats.CacheHits == 0 {
		t.Fatalf("cache hits = 0 across 16 identical partitions (entries %d)", sum.Stats.CacheEntries)
	}
	if sum.Stats.CacheEntries >= sum.Stats.WindowFlushes {
		t.Fatalf("entries %d not smaller than flushes %d", sum.Stats.CacheEntries, sum.Stats.WindowFlushes)
	}
}

// TestServeHTTPIngest: the HTTP transport shares the global tracker — a
// batch posted over HTTP lands in the same partitions, and /stats and
// /verdicts serve live JSON.
func TestServeHTTPIngest(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.RegisterModel(), WindowOps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	body := strings.Join([]string{
		`{"t":0,"k":"call","op":"Write(5)","p":"x"}`,
		`{"t":0,"k":"ret","op":"Write(5)","res":"ok"}`,
		`{"t":0,"k":"call","op":"Read()","p":"x"}`,
		`{"t":0,"k":"ret","op":"Read()","res":"5"}`,
	}, "\n")
	resp, err := http.Post("http://"+addr+"/ingest", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(`"ingested":4`)) {
		t.Fatalf("POST /ingest: status %d body %q", resp.StatusCode, out)
	}
	resp, err = http.Get("http://" + addr + "/verdicts")
	if err != nil {
		t.Fatalf("GET /verdicts: %v", err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(out, []byte(`"partition": "x"`)) {
		t.Fatalf("GET /verdicts: %s", out)
	}
	resp, err = http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(out, []byte(`"events_ingested": 4`)) {
		t.Fatalf("GET /stats: %s", out)
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sum.Linearizable {
		t.Fatalf("verdicts: %+v", sum.Verdicts)
	}
	// The endpoint is down after Close.
	if _, err := http.Get("http://" + addr + "/stats"); err == nil {
		t.Fatal("HTTP endpoint still serving after Close")
	}
}

// TestServeHTTPIngestBodyCap: a body over MaxIngestBytes is rejected with a
// clean 413 naming the cap; events before the cap are ingested (at-least-once
// batch semantics) and the server keeps serving afterwards.
func TestServeHTTPIngestBodyCap(t *testing.T) {
	s, err := serve.New(serve.Config{
		Model: monitor.RegisterModel(), WindowOps: 1,
		MaxIngestBytes: 256,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	var big strings.Builder
	for i := 0; big.Len() < 4096; i++ {
		fmt.Fprintf(&big, "{\"t\":0,\"k\":\"call\",\"op\":\"Write(1)\",\"p\":\"x\"}\n{\"t\":0,\"k\":\"ret\",\"op\":\"Write(1)\",\"res\":\"ok\"}\n")
	}
	resp, err := http.Post("http://"+addr+"/ingest", "application/jsonl", strings.NewReader(big.String()))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d body %q", resp.StatusCode, out)
	}
	if !bytes.Contains(out, []byte("256-byte cap")) {
		t.Fatalf("413 body does not name the cap: %q", out)
	}
	// The server survived: a small, well-formed batch still ingests.
	resp, err = http.Post("http://"+addr+"/ingest", "application/jsonl",
		strings.NewReader(`{"t":1,"k":"call","op":"Read()","p":"y"}`+"\n"+`{"t":1,"k":"ret","op":"Read()","res":"0"}`))
	if err != nil {
		t.Fatalf("POST after 413: %v", err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after 413: status %d body %q", resp.StatusCode, out)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServeHTTPStalledHeaders: a client that connects and then goes silent is
// cut off at ReadHeaderTimeout instead of holding its connection open forever.
func TestServeHTTPStalledHeaders(t *testing.T) {
	s, err := serve.New(serve.Config{
		Model: monitor.RegisterModel(), WindowOps: 1,
		ReadHeaderTimeout: 150 * time.Millisecond,
		IdleTimeout:       150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Half a request line, then silence: the server must close the
	// connection, observed here as EOF/reset well before the read deadline.
	if _, err := conn.Write([]byte("POST /ingest HT")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	start := time.Now()
	for {
		if _, err := conn.Read(buf); err != nil {
			break // connection torn down by the server
		}
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Fatalf("stalled connection still open after %v", elapsed)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServeMalformedStreamFailsStop: a bad event fails ingest without
// wedging the pool, and Close still works.
func TestServeMalformedStreamFailsStop(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.RegisterModel()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Ingest(obsfile.TraceEvent{T: 0, K: "ret", Res: "ok"}); err == nil {
		t.Fatal("return without open call ingested")
	}
	if _, err := s.IngestReader(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed JSON ingested")
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close after errors: %v", err)
	}
}

// TestServeWholeObjectGuardSurvivesResume: the whole-object guard has two
// halves and a checkpoint must carry both. A stream that opened with a
// whole-object Count() and then meets a partitioned Add(1) is refused; a
// server resumed from a checkpoint taken in between must refuse it with the
// same error, not check the two partitions apart.
func TestServeWholeObjectGuardSurvivesResume(t *testing.T) {
	m := monitor.SetModel()
	head := []obsfile.TraceEvent{
		{T: 0, K: "call", Op: "Count()"}, {T: 0, K: "ret", Op: "Count()", Res: "0"},
	}
	mixed := obsfile.TraceEvent{T: 0, K: "call", Op: "Add(1)"}

	uninterrupted, err := serve.New(serve.Config{Model: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, uninterrupted, head)
	want := uninterrupted.Ingest(mixed)
	_, _ = uninterrupted.Close()
	if want == nil || !strings.Contains(want.Error(), `"Add(1)"`) {
		t.Fatalf("uninterrupted run: err=%v, want the mix refused naming the arriving op", want)
	}

	cpPath := filepath.Join(t.TempDir(), "serve.ckpt")
	first, err := serve.New(serve.Config{Model: m, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestAll(t, first, head)
	if err := first.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	cfg, err := serve.Resume(serve.Config{Model: m, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resumed, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New(resumed): %v", err)
	}
	ingestAll(t, resumed, head) // replayed; the checkpoint covers it
	got := resumed.Ingest(mixed)
	_, _ = resumed.Close()
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("resumed run: err=%v, uninterrupted run refused with %v", got, want)
	}
}

// TestServeLoadRefusesOtherVersionByVersion: a checkpoint of another version
// whose fields changed type is refused because of its version, with both
// numbers, not reported as a JSON error of a struct it was never meant for.
func TestServeLoadRefusesOtherVersionByVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	if err := os.WriteFile(path, []byte(`{"version":7,"model":{"name":"register"},"window_ops":"16"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := serve.Load(path)
	if err == nil {
		t.Fatal("a version-7 checkpoint was loaded")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 7") || !strings.Contains(msg, "version 1") {
		t.Fatalf("refusal does not give both versions: %v", err)
	}
}

// TestServeResumeNamesEveryMismatch: a checkpoint written for another model
// and another window size is refused with both named in one error.
func TestServeResumeNamesEveryMismatch(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "serve.ckpt")
	first, err := serve.New(serve.Config{Model: monitor.RegisterModel(), WindowOps: 16, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := first.Close(); err != nil { // Close writes the checkpoint
		t.Fatalf("Close: %v", err)
	}
	cfg, err := serve.Resume(serve.Config{Model: monitor.QueueModel(), WindowOps: 32, CheckpointPath: cpPath})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	_, err = serve.New(cfg)
	if err == nil {
		t.Fatal("a register/16 checkpoint was resumed as queue/32")
	}
	for _, want := range []string{`model is "register"`, `"queue" here`, "window_ops is 16", "32 here"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error omits %q: %v", want, err)
		}
	}
}
