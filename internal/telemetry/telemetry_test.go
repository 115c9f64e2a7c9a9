package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	// Every observation method must be a no-op on nil.
	c.Add(ExecutionsDone, 1)
	c.Max(MaxDepth, 7)
	c.Emit("test", "x", 0)
	c.StartSpan("phase")()
	if got := c.Get(MaxDepth); got != 0 {
		t.Fatalf("nil Get(MaxDepth) = %d, want 0", got)
	}
	if s := c.Snapshot(); len(s) != 0 {
		t.Fatalf("nil Snapshot = %+v, want empty", s)
	}
	if c.Spans() != nil || c.Events() != nil {
		t.Fatal("nil collector returned non-nil spans/events")
	}
	if err := c.WriteTrace(io.Discard); err == nil {
		t.Fatal("nil WriteTrace should error")
	}
	// A child of no collector is a working collector of its own.
	child := c.Child()
	child.Add(ServeEventsRouted, 3)
	if got := child.Get(ServeEventsRouted); got != 3 {
		t.Fatalf("child of nil counted %d, want 3", got)
	}
}

// TestEveryCounterIsNamedAndTraced walks the one list of counters: each has a
// non-empty name no other counter has, and a value set on it is read back
// under that name after WriteTrace and ReadTraceEvents.
func TestEveryCounterIsNamedAndTraced(t *testing.T) {
	c := New()
	seen := make(map[string]Counter)
	for k := Counter(0); int(k) < len(counterNames); k++ {
		name := k.String()
		if name == "" {
			t.Errorf("counter %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
		c.Add(k, int64(k)+1)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	final := events[len(events)-1].Counters
	if len(final) != len(counterNames) {
		t.Fatalf("the final event holds %d counters, %d are declared", len(final), len(counterNames))
	}
	for name, k := range seen {
		if final[name] != int64(k)+1 {
			t.Errorf("%s: traced %d, want %d", name, final[name], int64(k)+1)
		}
	}
}

// TestCountersAndDepthWatermark drives one watermark (every Max is the same loop) from several goroutines, each
// observing an interleaved share of 0..max: it must end at max, and no
// goroutine may ever read it below a value it has itself observed — the
// update serve's load-then-store gauges could lose. Run under -race.
func TestCountersAndDepthWatermark(t *testing.T) {
	const goroutines, max = 8, 8000
	parent := New()
	c := parent.Child()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := int64(g); v <= max; v += goroutines {
				c.Max(MaxDepth, v)
				c.Add(ExecutionsDone, 1)
				if got := c.Get(MaxDepth); got < v {
					t.Errorf("watermark reads %d after %d was observed", got, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, col := range []*Collector{c, parent} {
		if got := col.Get(MaxDepth); got != max {
			t.Errorf("watermark ended at %d, want %d", got, max)
		}
		if got := col.Get(ExecutionsDone); got != max+1 {
			t.Errorf("counted %d observations, want %d", got, max+1)
		}
	}
	c.Max(MaxDepth, 3) // the watermark never regresses
	if got := c.Get(MaxDepth); got != max {
		t.Errorf("watermark after a lower observation = %d, want %d", got, max)
	}
}

// TestChildCountsReachTheParent: two children of one collector each read back
// their own counts; the parent holds the sum of the adds and the maximum of
// the watermarks.
func TestChildCountsReachTheParent(t *testing.T) {
	parent := New()
	a, b := parent.Child(), parent.Child()
	a.Add(ServeEventsRouted, 5)
	b.Add(ServeEventsRouted, 7)
	a.Max(ServeMaxFrontier, 4)
	b.Max(ServeMaxFrontier, 9)
	for _, tc := range []struct {
		c            *Collector
		routed, high int64
	}{{a, 5, 4}, {b, 7, 9}, {parent, 12, 9}} {
		if got := tc.c.Get(ServeEventsRouted); got != tc.routed {
			t.Errorf("routed = %d, want %d", got, tc.routed)
		}
		if got := tc.c.Get(ServeMaxFrontier); got != tc.high {
			t.Errorf("max frontier = %d, want %d", got, tc.high)
		}
	}
}

func TestSpansAndTrace(t *testing.T) {
	c := New()
	done := c.StartSpan("phase1")
	time.Sleep(time.Millisecond)
	done()
	c.StartSpan("phase2")()
	c.Add(HistCacheHits, 3)
	c.Emit("test", "Fig1", 0)

	if n := len(c.Spans()); n != 2 {
		t.Fatalf("got %d spans, want 2", n)
	}
	if c.SpanTotal("phase1") <= 0 {
		t.Fatal("phase1 span total should be positive")
	}

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	events, err := ReadTraceEvents(&buf)
	if err != nil {
		t.Fatalf("ReadTraceEvents: %v", err)
	}
	// 2 span events + 1 test event + synthetic final.
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	last := events[len(events)-1]
	if last.Kind != "final" {
		t.Fatalf("last event kind = %q, want final", last.Kind)
	}
	if last.Counters["histcache_hits"] != 3 {
		t.Fatalf("final snapshot HistCacheHits = %d, want 3", last.Counters["histcache_hits"])
	}
	// Events are time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].TMS < events[i-1].TMS {
			t.Fatalf("events out of order: %v then %v", events[i-1].TMS, events[i].TMS)
		}
	}
}

func TestReadTraceEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceEvents(strings.NewReader("{\"ev\":\"span\"}\nnot json\n")); err == nil {
		t.Fatal("want parse error on malformed line")
	}
}

func TestProgressRendersAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	c := New()
	c.Add(ExecutionsDone, 42)
	c.Add(TestsPlanned, 10)
	c.Add(TestsDone, 3)
	c.Add(Shards, 2)
	c.Add(ShardsDone, 1)
	c.Add(HistCacheEntries, 4)
	c.Add(HistCacheHits, 6)
	p := NewProgress(&buf, c, "check")
	p.Finish()
	p.Finish() // idempotent
	out := buf.String()
	for _, want := range []string{"check · tests 3/10", "42 execs", "shards 1/2, 0 splits", "2.5 execs/history"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q: %q", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 1 {
		t.Fatalf("progress wrote %d newlines, want exactly 1", got)
	}
}

// TestProgressStopsWithFinish: the repainting goroutine has exited by the
// time Finish returns, so nothing is written after it.
func TestProgressStopsWithFinish(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, New(), "serve")
	time.Sleep(2 * progressEvery) // let the ticker paint
	p.Finish()
	select {
	case <-p.exited:
	default:
		t.Fatal("the repainting goroutine is still running after Finish")
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("the final line does not end the output: %q", buf.String())
	}
}

// TestProgressPadsByRunes: a line that is shorter on screen than the one
// before it is padded over that one's columns, though its "·" separators
// make it longer in bytes.
func TestProgressPadsByRunes(t *testing.T) {
	var buf bytes.Buffer
	p := &Progress{w: &buf}
	first, second := "check 1234567890", "a · b · c · d"
	p.paint(first)
	p.paint(second)
	painted := strings.Split(buf.String(), "\r")[2]
	if n, want := utf8.RuneCountInString(painted), utf8.RuneCountInString(first); n < want {
		t.Fatalf("second paint %q covers %d columns, the first covered %d", painted, n, want)
	}
}

func TestNilProgressIsSafe(t *testing.T) {
	var p *Progress
	p.Finish()
	NewProgress(io.Discard, nil, "check").Finish()
}

func TestServeVarsAndPprof(t *testing.T) {
	c := New()
	c.Add(WitnessNodes, 9)
	c.StartSpan("phase2")()
	s, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(b)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, `"witness_nodes": 9`) {
		t.Fatalf("/debug/vars missing counter: %s", vars)
	}
	if !strings.Contains(vars, `"phase2"`) {
		t.Fatalf("/debug/vars missing span totals: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: %.80s", idx)
	}
}
