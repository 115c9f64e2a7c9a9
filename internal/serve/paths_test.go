package serve_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
)

// TestIngestPathsAgree: there is one way in, so every entrance must be that
// way. One multi-partition trace with a corrupted partition goes through
// Ingest per event, IngestBatch at several split sizes, IngestReader,
// IngestFrames and the HTTP endpoint under both content types; every route
// must yield the same verdicts (ops, windows, frontiers included) and the
// same counters, with routed + shed == ingested.
func TestIngestPathsAgree(t *testing.T) {
	m := monitor.RegisterModel()
	rng := rand.New(rand.NewSource(41))
	trace := interleave(rng, [][]obsfile.TraceEvent{
		genPartition(rng, "a", 0, 40, false),
		genPartition(rng, "b", 10, 40, true),
		genPartition(rng, "c", 20, 40, false),
		genPartition(rng, "d", 30, 40, false),
	})
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, ev := range trace {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	post := func(contentType string, body []byte) func(*serve.Server) {
		return func(s *serve.Server) {
			addr, err := s.StartHTTP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("StartHTTP: %v", err)
			}
			resp, err := http.Post("http://"+addr+"/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST /ingest: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /ingest (%s): status %d", contentType, resp.StatusCode)
			}
		}
	}
	batches := func(size int) func(*serve.Server) {
		return func(s *serve.Server) {
			c := s.NewConn()
			defer c.Release()
			for lo := 0; lo < len(trace); lo += size {
				hi := min(lo+size, len(trace))
				if n, err := c.IngestBatch(trace[lo:hi]); err != nil || n != hi-lo {
					t.Fatalf("IngestBatch[%d:%d]: n=%d err=%v", lo, hi, n, err)
				}
			}
		}
	}
	routes := []struct {
		name string
		feed func(*serve.Server)
	}{
		{"Ingest", func(s *serve.Server) { ingestAll(t, s, trace) }},
		{"IngestBatch/1", batches(1)},
		{"IngestBatch/7", batches(7)},
		{"IngestBatch/512", batches(512)},
		{"IngestReader", func(s *serve.Server) {
			if n, err := s.IngestReader(bytes.NewReader(jsonl.Bytes())); err != nil || n != int64(len(trace)) {
				t.Fatalf("IngestReader: n=%d err=%v", n, err)
			}
		}},
		{"IngestFrames", func(s *serve.Server) {
			if n, err := s.IngestFrames(bytes.NewReader(encodeFrames(t, trace, 7))); err != nil || n != int64(len(trace)) {
				t.Fatalf("IngestFrames: n=%d err=%v", n, err)
			}
		}},
		{"HTTP/jsonl", post("application/jsonl", jsonl.Bytes())},
		{"HTTP/frames", post(obsfile.BatchContentType, encodeFrames(t, trace, 16))},
	}
	var want *serve.Summary
	for _, r := range routes {
		s, err := serve.New(serve.Config{Model: m, Workers: 2, WindowOps: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.feed(s)
		got, err := s.Close()
		if err != nil {
			t.Fatalf("%s: Close: %v", r.name, err)
		}
		st := got.Stats
		if st.EventsIngested != int64(len(trace)) || st.EventsRouted+st.EventsShed != st.EventsIngested || st.EventsApplied != st.EventsRouted {
			t.Fatalf("%s: accounting: ingested %d (trace %d), routed %d, shed %d, applied %d",
				r.name, st.EventsIngested, len(trace), st.EventsRouted, st.EventsShed, st.EventsApplied)
		}
		if want == nil {
			want = got
			if want.Linearizable || len(want.Verdicts) != 4 {
				t.Fatalf("fixture: want 4 partitions and the planted violation, got %+v", want.Verdicts)
			}
			continue
		}
		if !reflect.DeepEqual(got.Verdicts, want.Verdicts) || got.Linearizable != want.Linearizable {
			t.Fatalf("%s: verdicts differ from %s:\nwant %+v\ngot  %+v", r.name, routes[0].name, want.Verdicts, got.Verdicts)
		}
		if st.OpsChecked != want.Stats.OpsChecked || st.WindowFlushes != want.Stats.WindowFlushes || st.Partitions != want.Stats.Partitions {
			t.Fatalf("%s: counters differ from %s:\nwant %+v\ngot  %+v", r.name, routes[0].name, want.Stats, st)
		}
	}
	t.Run("ShedOnePoisonsOnePartition", shedOnePoisonsOnePartition)
}

// shedOnePoisonsOnePartition: a batch of one is the per-event semantics,
// shedding included — with the only worker held and its one queue slot taken,
// the single event a full queue rejects poisons exactly its own partition:
// the slot's owner and a bystander are judged as usual.
func shedOnePoisonsOnePartition(t *testing.T) {
	s, err := serve.New(serve.Config{
		Model: monitor.RegisterModel(), Workers: 1, WindowOps: 1,
		QueueDepth: 1, Backpressure: serve.ShedOnFull,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// step ingests one event and waits for the worker to take it, so the next
	// event finds the slot free.
	step := func(ev obsfile.TraceEvent) {
		t.Helper()
		if err := s.Ingest(ev); err != nil {
			t.Fatalf("Ingest %+v: %v", ev, err)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	for th, key := range []string{"a", "b", "c"} {
		step(obsfile.TraceEvent{T: th, K: "call", Op: "Write(1)", P: key})
		step(obsfile.TraceEvent{T: th, K: "ret", Res: "ok"})
	}
	release, err := s.HoldWorkers()
	if err != nil {
		t.Fatalf("HoldWorkers: %v", err)
	}
	if err := s.Ingest(obsfile.TraceEvent{T: 0, K: "call", Op: "Read()", P: "a"}); err != nil { // takes the slot
		t.Fatalf("Ingest: %v", err)
	}
	if err := s.Ingest(obsfile.TraceEvent{T: 1, K: "call", Op: "Read()", P: "b"}); err != nil { // finds it full
		t.Fatalf("Ingest: %v", err)
	}
	release()
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	step(obsfile.TraceEvent{T: 0, K: "ret", Res: "1"})
	step(obsfile.TraceEvent{T: 1, K: "ret", Res: "1"}) // poisoned: counted shed
	step(obsfile.TraceEvent{T: 2, K: "call", Op: "Read()", P: "c"})
	step(obsfile.TraceEvent{T: 2, K: "ret", Res: "1"})
	sum, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := sum.Stats; st.EventsShed != 2 || st.EventsRouted+st.EventsShed != st.EventsIngested {
		t.Fatalf("accounting: routed %d, shed %d (want 2), ingested %d", st.EventsRouted, st.EventsShed, st.EventsIngested)
	}
	for _, v := range sum.Verdicts {
		if wantShed := v.Key == "b"; v.Shed != wantShed || (!v.Shed && (!v.Linearizable || v.Ops != 2)) {
			t.Fatalf("partition %q: %+v, want only b shed and a, c judged linearizable over 2 ops", v.Key, v)
		}
	}
	if len(sum.Verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3: %+v", len(sum.Verdicts), sum.Verdicts)
	}
}
