package obsfile

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"lineup/internal/history"
)

func TestStreamReaderEventByEvent(t *testing.T) {
	in := `
# comment
{"t":0,"k":"call","op":"Enqueue(10)","p":"q1"}
{"t":1,"k":"call","op":"TryDequeue()","p":"q1"}
{"t":0,"k":"ret","res":"ok"}
{"t":1,"k":"ret","res":"10"}
{"k":"stuck"}
`
	sr := NewStreamReader(strings.NewReader(in))
	want := []StreamEvent{
		{Thread: 0, Kind: history.Call, Op: "Enqueue(10)", Part: "q1", Index: 0, Line: 3},
		{Thread: 1, Kind: history.Call, Op: "TryDequeue()", Part: "q1", Index: 1, Line: 4},
		{Thread: 0, Kind: history.Return, Op: "Enqueue(10)", Result: "ok", Part: "q1", Index: 0, Line: 5},
		{Thread: 1, Kind: history.Return, Op: "TryDequeue()", Result: "10", Part: "q1", Index: 1, Line: 6},
		{Stuck: true, Line: 7},
	}
	for i, w := range want {
		ev, err := sr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != w {
			t.Fatalf("event %d: got %+v want %+v", i, ev, w)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after stuck: err=%v, want EOF", err)
	}
	if !sr.Tracker().Stuck() || sr.Tracker().Events() != 5 {
		t.Fatalf("tracker: stuck=%v events=%d", sr.Tracker().Stuck(), sr.Tracker().Events())
	}
}

func TestStreamReaderPartitionMismatch(t *testing.T) {
	in := `{"t":0,"k":"call","op":"A()","p":"x"}
{"t":0,"k":"ret","res":"ok","p":"y"}
`
	sr := NewStreamReader(strings.NewReader(in))
	if _, err := sr.Next(); err != nil {
		t.Fatalf("call: %v", err)
	}
	_, err := sr.Next()
	if err == nil || !strings.Contains(err.Error(), `partition "y"`) {
		t.Fatalf("conflicting return partition: err=%v", err)
	}
}

func TestTrackerStateRoundTrip(t *testing.T) {
	tr := NewStreamTracker()
	events := []TraceEvent{
		{T: 0, K: "call", Op: "A()", P: "x"},
		{T: 1, K: "call", Op: "B()"},
		{T: 0, K: "ret", Res: "ok"},
		{T: 2, K: "call", Op: "C()", P: "z"},
	}
	for i, ev := range events {
		if _, err := tr.Apply(ev, i+1); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	restored := RestoreStreamTracker(tr.State())
	if restored.Events() != tr.Events() || restored.OpenCalls() != tr.OpenCalls() {
		t.Fatalf("restored tracker differs: events %d/%d open %d/%d",
			restored.Events(), tr.Events(), restored.OpenCalls(), tr.OpenCalls())
	}
	// The restored tracker continues with identical op indices and keys.
	for _, tk := range []*StreamTracker{tr, restored} {
		ev, err := tk.Apply(TraceEvent{T: 1, K: "ret", Res: "ok"}, 5)
		if err != nil {
			t.Fatalf("ret on %p: %v", tk, err)
		}
		if ev.Op != "B()" || ev.Index != 1 {
			t.Fatalf("resolved return %+v, want B() index 1", ev)
		}
	}
	// And rejects a double call the same way.
	if _, err := restored.Apply(TraceEvent{T: 2, K: "call", Op: "D()"}, 6); err == nil {
		t.Fatal("restored tracker accepted a double call")
	}
}

// benchTrace builds an in-memory JSONL trace of n call/return pairs with
// comments and blank lines sprinkled in, the parse shape the ingest hot path
// sees in production.
func benchTrace(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString("# generated benchmark trace\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "{\"t\":%d,\"k\":\"call\",\"op\":\"Enqueue(%d)\",\"p\":\"q%d\"}\n", i%8, i, i%4)
		fmt.Fprintf(&buf, "{\"t\":%d,\"k\":\"ret\",\"res\":\"ok\"}\n", i%8)
		if i%64 == 0 {
			buf.WriteString("\n# checkpoint comment\n")
		}
	}
	return buf.Bytes()
}

func BenchmarkStreamReaderNext(b *testing.B) {
	trace := benchTrace(1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(trace)))
	for i := 0; i < b.N; i++ {
		sr := NewStreamReader(bytes.NewReader(trace))
		for {
			if _, err := sr.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}

func BenchmarkRawReaderNext(b *testing.B) {
	trace := benchTrace(1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(trace)))
	for i := 0; i < b.N; i++ {
		rr := NewRawReader(bytes.NewReader(trace))
		for {
			if _, err := rr.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}

func TestRawReaderSkipsValidation(t *testing.T) {
	// A raw reader parses events a tracker would reject (validation is the
	// caller's job) but still fails stop on malformed JSON.
	in := `{"t":0,"k":"ret","res":"ok"}
# comment
{"t":0,"k":"call","op":"A()"}
{oops
`
	rr := NewRawReader(strings.NewReader(in))
	if ev, err := rr.Next(); err != nil || ev.K != "ret" {
		t.Fatalf("first: %+v err=%v", ev, err)
	}
	if ev, err := rr.Next(); err != nil || ev.Op != "A()" || rr.Line() != 3 {
		t.Fatalf("second: %+v line=%d err=%v", ev, rr.Line(), err)
	}
	if _, err := rr.Next(); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("malformed line: err=%v", err)
	}
	if _, err := rr.Next(); err == nil || err == io.EOF {
		t.Fatalf("error not sticky: %v", err)
	}
}

// TestRestoredTrackerIssuesAboveNext: a snapshot's Next may lie above every
// index it holds (serve's former concurrent tracker drew indices in
// per-thread blocks of 64). A restored tracker pairs each open call's return
// with that call's own index and issues new indices densely from Next on.
func TestRestoredTrackerIssuesAboveNext(t *testing.T) {
	tr := RestoreStreamTracker(TrackerState{Next: 576, Events: 42, Open: []OpenCallState{
		{Thread: 22, Index: 1, Op: "Write(3)", Part: "c"},
		{Thread: 10, Index: 514, Op: "Write(2)", Part: "b"},
	}})
	ret, err := tr.Apply(TraceEvent{T: 22, K: "ret", Res: "ok"}, 43)
	if err != nil || ret.Index != 1 || ret.Op != "Write(3)" || ret.Part != "c" {
		t.Fatalf("return of a restored open call: %+v, %v", ret, err)
	}
	for i, th := range []int{22, 30} {
		call, err := tr.Apply(TraceEvent{T: th, K: "call", Op: "Read()", P: "c"}, 44+i)
		if err != nil || call.Index != 576+i {
			t.Fatalf("call %d after restore: index %d (%v), want %d", i, call.Index, err, 576+i)
		}
	}
	if _, err := tr.Apply(TraceEvent{T: 10, K: "call", Op: "Read()"}, 46); err == nil {
		t.Fatal("a restored open call's thread accepted a second call")
	}
	if tr.OpenCalls() != 3 || tr.Events() != 45 {
		t.Fatalf("open %d events %d, want 3 and 45", tr.OpenCalls(), tr.Events())
	}
}
