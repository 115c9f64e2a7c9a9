package serve_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
)

// TestServeConcurrentShedAccounting is the accounting regression test: four
// connections ingest concurrently under ShedOnFull (half per-event, half
// batched) while checkpoints race the stream, and the invariant must hold
// exactly — every tracker-accepted event counted once as routed or shed, with
// a shed racing a checkpoint barrier neither double-counted nor lost. Run
// under -race (make check's serve smoke does).
func TestServeConcurrentShedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const conns = 4
	traces := make([][]obsfile.TraceEvent, conns)
	var total int64
	for i := range traces {
		// Each connection carries two partitions of its own; threads are
		// disjoint across connections, per the determinism contract.
		traces[i] = interleave(rng, [][]obsfile.TraceEvent{
			genPartition(rng, fmt.Sprintf("c%d-a", i), i*100, 30, false),
			genPartition(rng, fmt.Sprintf("c%d-b", i), i*100+10, 30, false),
		})
		total += int64(len(traces[i]))
	}
	s, err := serve.New(serve.Config{
		Model:          slowModel(time.Millisecond),
		Workers:        2,
		WindowOps:      1,
		QueueDepth:     4,
		Backpressure:   serve.ShedOnFull,
		CheckpointPath: filepath.Join(t.TempDir(), "serve.ckpt"),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns+1)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.NewConn()
			defer c.Release()
			if i%2 == 0 {
				for _, ev := range traces[i] {
					if err := c.Ingest(ev); err != nil {
						errs <- fmt.Errorf("conn %d: %w", i, err)
						return
					}
				}
				return
			}
			for lo := 0; lo < len(traces[i]); lo += 7 {
				hi := min(lo+7, len(traces[i]))
				if _, err := c.IngestBatch(traces[i][lo:hi]); err != nil {
					errs <- fmt.Errorf("conn %d batch: %w", i, err)
					return
				}
			}
		}(i)
	}
	// Checkpoints stop the world mid-shed: the barrier must observe a cut
	// where the counters already balance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
			st := s.Stats()
			if st.EventsRouted+st.EventsShed > st.EventsIngested {
				errs <- fmt.Errorf("checkpoint %d: routed %d + shed %d > ingested %d",
					i, st.EventsRouted, st.EventsShed, st.EventsIngested)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := sum.Stats
	if st.EventsIngested != total {
		t.Fatalf("ingested %d, want %d", st.EventsIngested, total)
	}
	if st.EventsRouted+st.EventsShed != st.EventsIngested {
		t.Fatalf("accounting: routed %d + shed %d != ingested %d",
			st.EventsRouted, st.EventsShed, st.EventsIngested)
	}
	if st.EventsApplied != st.EventsRouted {
		t.Fatalf("after close: applied %d != routed %d", st.EventsApplied, st.EventsRouted)
	}
	if st.EventsShed == 0 {
		t.Fatal("expected sheds with a slow model and queue depth 4")
	}
}

// TestServeConcurrentConnsMatchVerdicts: four concurrent connections, each
// owning disjoint partitions under BlockOnFull, produce exactly the verdicts
// the batch monitor gives each partition's sub-history — per-partition order
// is deterministic as long as a partition stays on one connection.
func TestServeConcurrentConnsMatchVerdicts(t *testing.T) {
	m := monitor.RegisterModel()
	rng := rand.New(rand.NewSource(29))
	const conns = 4
	traces := make([][]obsfile.TraceEvent, conns)
	keys := make([]string, conns)
	for i := range traces {
		keys[i] = fmt.Sprintf("p%d", i)
		traces[i] = genPartition(rng, keys[i], i*10, 25, i%2 == 1)
	}
	s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.NewConn()
			defer c.Release()
			for lo := 0; lo < len(traces[i]); lo += 5 {
				hi := min(lo+5, len(traces[i]))
				if _, err := c.IngestBatch(traces[i][lo:hi]); err != nil {
					t.Errorf("conn %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, k := range keys {
		want := batchVerdict(t, m, traces[i], k)
		found := false
		for _, v := range sum.Verdicts {
			if v.Key == k {
				found = true
				if v.Err != "" || v.Linearizable != want {
					t.Fatalf("partition %q: got linearizable=%v err=%q, batch says %v", k, v.Linearizable, v.Err, want)
				}
			}
		}
		if !found {
			t.Fatalf("no verdict for partition %q", k)
		}
	}
}

// encodeFrames renders a trace as binary batch frames.
func encodeFrames(t *testing.T, evs []obsfile.TraceEvent, batch int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := obsfile.NewFrameWriter(&buf)
	fw.BatchSize = batch
	for _, ev := range evs {
		if err := fw.WriteEvent(ev); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestServeBatchFramesMatchJSONL: the same trace ingested as binary batch
// frames — directly and over HTTP, with the batch Content-Type or none — yields
// verdicts bit-identical to the JSONL ingest path.
func TestServeBatchFramesMatchJSONL(t *testing.T) {
	m := monitor.RegisterModel()
	rng := rand.New(rand.NewSource(31))
	trace := interleave(rng, [][]obsfile.TraceEvent{
		genPartition(rng, "a", 0, 20, false),
		genPartition(rng, "b", 10, 20, true),
		genPartition(rng, "c", 20, 20, false),
	})

	run := func(feed func(s *serve.Server)) *serve.Summary {
		s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		feed(s)
		sum, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		return sum
	}

	want := run(func(s *serve.Server) { ingestAll(t, s, trace) })

	gotDirect := run(func(s *serve.Server) {
		n, err := s.IngestFrames(bytes.NewReader(encodeFrames(t, trace, 7)))
		if err != nil {
			t.Fatalf("IngestFrames: %v", err)
		}
		if n != int64(len(trace)) {
			t.Fatalf("IngestFrames consumed %d events, want %d", n, len(trace))
		}
	})

	postFrames := func(contentType string) *serve.Summary {
		return run(func(s *serve.Server) {
			addr, err := s.StartHTTP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("StartHTTP: %v", err)
			}
			resp, err := http.Post("http://"+addr+"/ingest", contentType,
				bytes.NewReader(encodeFrames(t, trace, 16)))
			if err != nil {
				t.Fatalf("POST /ingest: %v", err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(fmt.Sprintf(`"ingested":%d`, len(trace)))) {
				t.Fatalf("POST /ingest (Content-Type %q): status %d body %q", contentType, resp.StatusCode, out)
			}
		})
	}

	for name, got := range map[string]*serve.Summary{
		"direct frames": gotDirect,
		"HTTP frames":   postFrames(obsfile.BatchContentType),
		// The first bytes decide the format, so frames need no Content-Type.
		"HTTP frames, no Content-Type": postFrames(""),
	} {
		if !reflect.DeepEqual(got.Verdicts, want.Verdicts) {
			t.Fatalf("%s: verdicts differ from JSONL ingest:\njsonl: %+v\ngot:   %+v", name, want.Verdicts, got.Verdicts)
		}
		if got.Linearizable != want.Linearizable {
			t.Fatalf("%s: summary %v, jsonl %v", name, got.Linearizable, want.Linearizable)
		}
	}
}

// TestServeHoldWorkers: while the pool is held nothing is applied — events
// queue up — and release lets the drain catch all the way up.
func TestServeHoldWorkers(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.RegisterModel(), WindowOps: 1, QueueDepth: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release, err := s.HoldWorkers()
	if err != nil {
		t.Fatalf("HoldWorkers: %v", err)
	}
	trace := genPartition(rand.New(rand.NewSource(37)), "h", 0, 10, false)
	ingestAll(t, s, trace)
	if st := s.Stats(); st.EventsApplied != 0 || st.EventsRouted != int64(len(trace)) {
		t.Fatalf("held pool: applied=%d routed=%d, want 0/%d", st.EventsApplied, st.EventsRouted, len(trace))
	}
	release()
	release() // idempotent
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	if st := s.Stats(); st.EventsApplied != int64(len(trace)) {
		t.Fatalf("after release: applied=%d, want %d", st.EventsApplied, len(trace))
	}
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sum.Linearizable {
		t.Fatalf("verdicts: %+v", sum.Verdicts)
	}
}

// TestServeTruncatedFrameStreamFailsStop: a frame stream cut mid-frame
// surfaces the structured truncation error through ingest instead of a clean
// EOF, and the server survives.
func TestServeTruncatedFrameStreamFailsStop(t *testing.T) {
	s, err := serve.New(serve.Config{Model: monitor.RegisterModel(), WindowOps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := encodeFrames(t, []obsfile.TraceEvent{
		{T: 0, K: "call", Op: "Write(1)", P: "x"},
		{T: 0, K: "ret", Op: "Write(1)", Res: "ok"},
	}, 2)
	_, err = s.IngestFrames(bytes.NewReader(data[:len(data)-1]))
	var trunc *obsfile.TruncatedFrameError
	if !errors.As(err, &trunc) {
		t.Fatalf("cut frame stream: err=%v, want *TruncatedFrameError", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close after truncation: %v", err)
	}
}

// dealStreams generates parts random register partitions (threads disjoint,
// some corrupted) and deals them to conns connections: it returns the whole
// stream, as one producer would send it, and each connection's share, every
// partition on exactly one connection in its own order.
func dealStreams(rng *rand.Rand, parts, opsMax, conns int) (whole []obsfile.TraceEvent, shares [][]obsfile.TraceEvent) {
	gen := make([][]obsfile.TraceEvent, parts)
	dealt := make([][][]obsfile.TraceEvent, conns)
	for i := range gen {
		gen[i] = genPartition(rng, fmt.Sprintf("p%d", i), i*10, 1+rng.Intn(opsMax), rng.Intn(3) == 0)
		c := rng.Intn(conns)
		dealt[c] = append(dealt[c], gen[i])
	}
	for _, d := range dealt {
		shares = append(shares, interleave(rng, d))
	}
	return interleave(rng, gen), shares
}

// FuzzServeConns is the multi-connection differential: a seeded stream of up
// to eight partitions is dealt to k = 1–4 connections that ingest at the same
// time in random batch sizes, and every verdict must be the one a single
// connection ingesting the whole stream gets, with routed + shed == ingested.
// Under ShedOnFull (a one-slot queue) a partition a full queue poisoned is
// judged on a gapped stream, so only the others are compared. The seed corpus
// runs in `go test` and, under -race, in `make serve-smoke`.
func FuzzServeConns(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), false)
	f.Add(int64(2), uint8(2), uint8(4), false)
	f.Add(int64(3), uint8(3), uint8(7), false)
	f.Add(int64(4), uint8(4), uint8(5), true)
	f.Add(int64(5), uint8(2), uint8(1), true)
	m := monitor.RegisterModel()
	f.Fuzz(func(t *testing.T, seed int64, conns, parts uint8, shed bool) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(conns)%4
		whole, shares := dealStreams(rng, 1+int(parts)%8, 12, k)
		cfg := serve.Config{Model: m, Workers: 2, WindowOps: 1 + rng.Intn(3)}
		// Each connection's batch sizes are drawn here: rng is not shared
		// with the ingesting goroutines.
		sizes := make([][]int, k)
		for c, share := range shares {
			for left := len(share); left > 0; {
				n := min(left, 1+rng.Intn(16))
				sizes[c] = append(sizes[c], n)
				left -= n
			}
		}

		one, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := one.NewConn().IngestBatch(whole); err != nil {
			t.Fatalf("single connection: %v", err)
		}
		want, err := one.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}

		if shed {
			cfg.QueueDepth, cfg.Backpressure = 1, serve.ShedOnFull
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		for c := range shares {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conn := s.NewConn()
				defer conn.Release()
				lo := 0
				for _, n := range sizes[c] {
					if _, err := conn.IngestBatch(shares[c][lo : lo+n]); err != nil {
						t.Errorf("conn %d: %v", c, err)
						return
					}
					lo += n
				}
			}(c)
		}
		wg.Wait()
		got, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if t.Failed() {
			t.FailNow()
		}
		st := got.Stats
		if st.EventsIngested != int64(len(whole)) || st.EventsRouted+st.EventsShed != st.EventsIngested || st.EventsApplied != st.EventsRouted {
			t.Fatalf("%d connections: ingested %d (stream %d), routed %d, shed %d, applied %d",
				k, st.EventsIngested, len(whole), st.EventsRouted, st.EventsShed, st.EventsApplied)
		}
		if !shed && (len(got.Verdicts) != len(want.Verdicts) || got.Linearizable != want.Linearizable) {
			t.Fatalf("%d connections: %d verdicts, linearizable %v; one connection %d, %v",
				k, len(got.Verdicts), got.Linearizable, len(want.Verdicts), want.Linearizable)
		}
		// A partition whose first events were shed has no verdict at all.
		wantBy := make(map[string]serve.PartitionVerdict)
		for _, v := range want.Verdicts {
			wantBy[v.Key] = v
		}
		for _, v := range got.Verdicts {
			if w, ok := wantBy[v.Key]; !ok || (!v.Shed && v != w) {
				t.Fatalf("%d connections: partition %q:\ngot  %+v\nwant %+v", k, v.Key, v, w)
			}
		}
	})
}

// BenchmarkServeConnIngest prices validate-and-route with the checker pool
// parked (HoldWorkers), over 1, 2 and 4 connections ingesting at the same
// time in batches of 64: the cost of serve's one tracker lock as connections
// are added.
func BenchmarkServeConnIngest(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("conns=%d", k), func(b *testing.B) {
			whole, shares := dealStreams(rand.New(rand.NewSource(61)), 8, 256, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := serve.New(serve.Config{Model: monitor.RegisterModel(), Workers: 2, QueueDepth: len(whole)})
				if err != nil {
					b.Fatal(err)
				}
				release, err := s.HoldWorkers()
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				b.StartTimer()
				for _, share := range shares {
					wg.Add(1)
					go func(share []obsfile.TraceEvent) {
						defer wg.Done()
						conn := s.NewConn()
						defer conn.Release()
						for lo := 0; lo < len(share); lo += 64 {
							if _, err := conn.IngestBatch(share[lo:min(lo+64, len(share))]); err != nil {
								b.Error(err)
								return
							}
						}
					}(share)
				}
				wg.Wait()
				b.StopTimer()
				release()
				if _, err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(whole)), "ns/event")
		})
	}
}
