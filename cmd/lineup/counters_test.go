package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/monitor"
	"lineup/internal/sched"
	"lineup/internal/serve"
	"lineup/internal/telemetry"
)

// getJSON fetches url and decodes the response body as one JSON object.
func getJSON(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return obj
}

// nonZeroNames returns, sorted, the keys of a JSON object of numbers whose
// value is not zero.
func nonZeroNames(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var counters map[string]int64
	if err := json.Unmarshal(raw, &counters); err != nil {
		t.Fatalf("counters %s: %v", raw, err)
	}
	var names []string
	for name, v := range counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// counterNames renders what a finished run left in col at its two outlets,
// read as an operator reads them: the "counters" object of /debug/vars and of
// the last ("final") line of the JSONL trace. Only the names of the counters
// that are not zero are recorded, one "<run> <outlet> <name>" line each.
func counterNames(t *testing.T, run string, col *telemetry.Collector) []string {
	t.Helper()
	srv, err := telemetry.Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var lines []string
	for _, name := range nonZeroNames(t, getJSON(t, "http://"+srv.Addr+"/debug/vars")["counters"]) {
		lines = append(lines, fmt.Sprintf("%s /debug/vars %s", run, name))
	}
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	traceLines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var final map[string]json.RawMessage
	if err := json.Unmarshal(traceLines[len(traceLines)-1], &final); err != nil {
		t.Fatal(err)
	}
	if string(final["ev"]) != `"final"` {
		t.Fatalf("the trace ends in %s, not in the final event", final["ev"])
	}
	for _, name := range nonZeroNames(t, final["counters"]) {
		lines = append(lines, fmt.Sprintf("%s trace-final %s", run, name))
	}
	return lines
}

// TestCounterNamesGolden pins what an operator can read of a run from
// outside: the names of the counters one check, one dist and one serve run
// leave non-zero under /debug/vars and in the trace's final event, and the
// keys of serve's GET /stats. How the counters are declared and collected may
// change; a name may not (whether a zero counter is printed may).
// LINEUP_UPDATE_GOLDEN=1 rewrites testdata/counters.golden.
func TestCounterNamesGolden(t *testing.T) {
	sub, pb, ok := findSubject("ConcurrentQueue")
	if !ok {
		t.Fatal("no ConcurrentQueue in the registry")
	}
	var got []string

	col := telemetry.New()
	ropts := core.RandomOptions{Samples: 2, Rows: 2, Cols: 2, Seed: 1, Workers: 1}
	ropts.PreemptionBound, ropts.Reduction, ropts.Telemetry = pb, sched.ReductionSleep, col
	if _, err := core.RandomCheck(sub, nil, ropts); err != nil {
		t.Fatal(err)
	}
	got = append(got, counterNames(t, "check", col)...)

	col = telemetry.New()
	m, err := bench.ParseTest(sub, "Enqueue(10) TryDequeue() / Enqueue(20) TryPeek()")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{PreemptionBound: pb, Reduction: sched.ReductionSleep, Telemetry: col}
	if _, _, err := dist.Run(context.Background(), dist.Config{
		Subject: sub, Test: m, Options: opts, Workers: 2, Depth: 2, Telemetry: col,
	}); err != nil {
		t.Fatal(err)
	}
	got = append(got, counterNames(t, "dist", col)...)

	// One worker, so that which window transition is computed and which is a
	// cache hit does not depend on a race between two.
	col = telemetry.New()
	s, err := serve.New(serve.Config{
		Model: monitor.RegisterModel(), Monitor: monitor.Options{Telemetry: col},
		Workers: 1, WindowOps: 16, Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewConn().IngestBatch(genServeEvents(t, 3, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range getJSON(t, "http://"+addr+"/stats") {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got = append(got, "serve /stats "+k)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got = append(got, counterNames(t, "serve", col)...)

	checkGolden(t, "testdata/counters.golden", got)
}
