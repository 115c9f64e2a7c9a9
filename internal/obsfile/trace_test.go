package obsfile

import (
	"bytes"
	"strings"
	"testing"

	"lineup/internal/history"
)

func TestReadTrace(t *testing.T) {
	in := `
# a hand-written Fig. 1-shaped trace
{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}

{"t":1,"k":"call","op":"TryDequeue()"}
{"t":1,"k":"ret","res":"Fail"}
`
	h, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != 4 || h.Stuck {
		t.Fatalf("bad history: %+v", h)
	}
	ops := h.Ops()
	if len(ops) != 2 || !ops[0].Complete || ops[1].Result != "Fail" {
		t.Fatalf("bad ops: %v", ops)
	}
	if !h.WellFormed() {
		t.Fatal("trace must parse to a well-formed history")
	}
}

func TestReadTraceStuck(t *testing.T) {
	in := `{"t":0,"k":"call","op":"Take()"}
{"k":"stuck"}
`
	h, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stuck || len(h.Pending()) != 1 {
		t.Fatalf("expected a stuck history with one pending op: %+v", h)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"bad json", `{"t":0,"k":`, "line 1"},
		{"unknown kind", `{"t":0,"k":"invoke","op":"X()"}`, "unknown event kind"},
		{"call while open", `{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"call","op":"B()"}`, "still open"},
		{"ret without call", `{"t":0,"k":"ret","res":"ok"}`, "without an open call"},
		{"ret wrong op", `{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"ret","op":"B()","res":"ok"}`, "B() but A() is open"},
		{"call without op", `{"t":0,"k":"call"}`, "without an op name"},
		{"negative thread", `{"t":-1,"k":"call","op":"A()"}`, "negative thread"},
		{"events after stuck", `{"k":"stuck"}` + "\n" + `{"t":0,"k":"call","op":"A()"}`, "after the stuck marker"},
		{"line over the limit", `{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"ret","res":"` + strings.Repeat("x", maxTraceLine) + `"}`, "trace line 2: longer than 1 MiB"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
			sr := NewStreamReader(strings.NewReader(c.in))
			_, serr := sr.Next()
			for serr == nil {
				_, serr = sr.Next()
			}
			if serr.Error() != err.Error() {
				t.Fatalf("StreamReader reports %q, ReadTrace %q", serr, err)
			}
		})
	}
}

func TestTraceRoundTrip(t *testing.T) {
	h := &history.History{
		Events: []history.Event{
			{Thread: 0, Kind: history.Call, Op: "Enqueue(10)", Index: 0},
			{Thread: 1, Kind: history.Call, Op: "TryDequeue()", Index: 1},
			{Thread: 0, Kind: history.Return, Op: "Enqueue(10)", Result: "ok", Index: 0},
			{Thread: 1, Kind: history.Return, Op: "TryDequeue()", Result: "10", Index: 1},
			{Thread: 2, Kind: history.Call, Op: "Take()", Index: 2},
		},
		Stuck: true,
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stuck != h.Stuck || len(got.Events) != len(h.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, e := range got.Events {
		w := h.Events[i]
		if e.Thread != w.Thread || e.Kind != w.Kind || e.Op != w.Op || e.Result != w.Result {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, e, w)
		}
	}
}

func TestParseErrorPaths(t *testing.T) {
	const good = `<observationset>
  <observation>
    <thread id="A">1</thread>
    <thread id="B">2</thread>
    <op id="1" name="Add">value="200" result="ok"</op>
    <op id="2" name="TryTake">result="200"</op>
    <history>1[ ]1 2[ ]2</history>
  </observation>
</observationset>`
	// The well-formed file parses.
	if _, err := Parse(strings.NewReader(good)); err != nil {
		t.Fatalf("good file rejected: %v", err)
	}
	cases := []struct{ name, in, want string }{
		{
			"truncated xml",
			good[:len(good)/2],
			"obsfile:",
		},
		{
			"duplicate thread id",
			strings.Replace(good, `<thread id="B">2</thread>`, `<thread id="A">2</thread>`, 1),
			"duplicate thread id",
		},
		{
			"op listed twice",
			strings.Replace(good, `<thread id="B">2</thread>`, `<thread id="B">1 2</thread>`, 1),
			"more than one thread",
		},
		{
			"missing result string",
			strings.Replace(good, `<op id="2" name="TryTake">result="200"</op>`, `<op id="2" name="TryTake" />`, 1),
			"no result string",
		},
		{
			"blocking op with result",
			strings.Replace(good, `<thread id="B">2</thread>`, `<thread id="B">2B</thread>`, 1),
			"carries result",
		},
		{
			"op without thread",
			strings.Replace(good, `<thread id="B">2</thread>`, ``, 1),
			"not listed by any thread",
		},
		{
			"history references undefined op",
			strings.Replace(good, "1[ ]1 2[ ]2", "1[ ]1 3[ ]3", 1),
			"undefined op",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}
