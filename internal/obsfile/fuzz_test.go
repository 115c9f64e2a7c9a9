package obsfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// FuzzReadTrace exercises the JSONL history-trace parser with arbitrary
// input. The invariants are: ReadTrace never panics; on success the parsed
// history is well-formed (or stuck-annotated) and survives a
// WriteTrace/ReadTrace round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	seeds := []string{
		// Well-formed traces from the unit tests.
		`
# a hand-written Fig. 1-shaped trace
{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}

{"t":1,"k":"call","op":"TryDequeue()"}
{"t":1,"k":"ret","res":"Fail"}
`,
		`{"t":0,"k":"call","op":"Take()"}
{"k":"stuck"}
`,
		// Every rejection path from TestReadTraceErrors.
		`{"t":0,"k":`,
		`{"t":0,"k":"invoke","op":"X()"}`,
		`{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"call","op":"B()"}`,
		`{"t":0,"k":"ret","res":"ok"}`,
		`{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"ret","op":"B()","res":"ok"}`,
		`{"t":0,"k":"call"}`,
		`{"t":-1,"k":"call","op":"A()"}`,
		`{"k":"stuck"}` + "\n" + `{"t":0,"k":"call","op":"A()"}`,
		// Oddities: empty input, comments only, huge thread, embedded junk.
		``,
		"#\n#\n",
		`{"t":99999999,"k":"call","op":"A()"}`,
		"\x00\xff{not json at all",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			if h != nil {
				t.Fatalf("error %v returned alongside a non-nil history", err)
			}
			return
		}
		if h == nil {
			t.Fatalf("nil history with nil error")
		}
		// A parsed trace is internally consistent: full histories are
		// well-formed, and re-serializing must reproduce the exact history.
		if !h.Stuck && !h.WellFormed() {
			t.Fatalf("parsed full history is not well-formed: %+v", h)
		}
		var buf bytes.Buffer
		if werr := WriteTrace(&buf, h); werr != nil {
			t.Fatalf("WriteTrace on parsed history: %v", werr)
		}
		h2, rerr := ReadTrace(&buf)
		if rerr != nil {
			t.Fatalf("re-reading written trace: %v\ntrace:\n%s", rerr, buf.String())
		}
		if h2.Stuck != h.Stuck || len(h2.Events) != len(h.Events) {
			t.Fatalf("round trip changed shape: %+v vs %+v", h2, h)
		}
		for i, e := range h2.Events {
			w := h.Events[i]
			if e.Thread != w.Thread || e.Kind != w.Kind || e.Op != w.Op || e.Result != w.Result {
				t.Fatalf("round trip changed event %d: got %+v want %+v", i, e, w)
			}
		}
	})
}

// FuzzStreamReader exercises the incremental trace reader with arbitrary
// input — malformed JSON, truncated lines, interleaved partition keys. The
// invariants are: Next never panics; errors are sticky (a broken stream can
// never wedge or half-advance a consumer); and the event-by-event result
// agrees exactly with the batch ReadTrace on the same bytes.
func FuzzStreamReader(f *testing.F) {
	seeds := []string{
		"",
		`{"t":0,"k":"call","op":"A()","p":"x"}` + "\n" + `{"t":0,"k":"ret","res":"ok"}`,
		`{"t":0,"k":"call","op":"A()","p":"x"}` + "\n" + `{"t":0,"k":"ret","res":"ok","p":"y"}`,
		`{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":1,"k":"call","op":"B()","p":"q"}` + "\n{bad",
		`{"k":"stuck"}` + "\n" + `{"t":0,"k":"call","op":"A()"}`,
		`{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"call","op":"B()"}`,
		"\x00\xff{not json at all",
		// Where ReadTrace's strings.Cut and RawReader's bufio.Scanner could
		// split lines differently: CRLF, a last line without a newline (and
		// one ending in a lone CR), blank and whitespace-only lines, an
		// indented comment, lines only encoding/json decodes, and an error
		// on a line counted past comments.
		`{"t":0,"k":"call","op":"A()"}` + "\r\n" + `{"t":0,"k":"ret","res":"ok"}` + "\r\n",
		`{"t":0,"k":"call","op":"A()"}` + "\r\n" + `{"t":0,"k":"ret","res":"ok"}` + "\r",
		"\n \n\t\r\n" + `{"t":0,"k":"call","op":"A()"}` + "\n   \n\n",
		"  # indented comment\n\t#\n" + `{"t":0,"k":"call","op":"A()"}`,
		`{"t":0,"k":"call","op":"A(\"x\")"}` + "\n" + `{"t": 0, "k": "ret", "res": "ok"}`,
		" " + `{"t":0,"k":"call","op":"A()"}` + " \n \n",
		" " + `{"t":0,"k":"call","op":"A()"}` + " \n\u0085\n",
		"# one\n# two\n\n" + `{"t":0,"k":"call","op":"A()"}` + "\n" + `{"t":0,"k":"call","op":"B()"}` + "\n",
		"# one\n\n# two\n{bad\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sr := NewStreamReader(strings.NewReader(in))
		var events []StreamEvent
		var stuck bool
		var streamErr error
		for {
			ev, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				streamErr = err
				// Sticky: every further Next returns the identical error.
				if _, again := sr.Next(); again == nil || again.Error() != err.Error() {
					t.Fatalf("error not sticky: first %v then %v", err, again)
				}
				break
			}
			if ev.Stuck {
				stuck = true
			} else {
				events = append(events, ev)
			}
		}
		h, rerr := ReadTrace(strings.NewReader(in))
		if (rerr == nil) != (streamErr == nil) {
			t.Fatalf("batch/stream disagree: batch err %v, stream err %v", rerr, streamErr)
		}
		if rerr != nil {
			if rerr.Error() != streamErr.Error() {
				t.Fatalf("batch/stream error text differs: %q vs %q", rerr, streamErr)
			}
			return
		}
		if h.Stuck != stuck || len(h.Events) != len(events) {
			t.Fatalf("batch/stream shape differs: batch %d events stuck=%v, stream %d stuck=%v",
				len(h.Events), h.Stuck, len(events), stuck)
		}
		for i, ev := range events {
			he := ev.HistoryEvent()
			if he != h.Events[i] {
				t.Fatalf("event %d differs: stream %+v batch %+v", i, he, h.Events[i])
			}
		}
	})
}

// FuzzJSONLScanner holds the schema scanner to encoding/json, which defines
// the trace format: on arbitrary bytes scanEvent either declines — the line
// then goes to json.Unmarshal, as before there was a scanner — or returns
// exactly the event json.Unmarshal returns, with json.Unmarshal reporting no
// error. The seeds sit on the edges of the shape it accepts.
func FuzzJSONLScanner(f *testing.F) {
	for _, s := range []string{
		`{"t":0,"k":"call","op":"Enqueue(10)"}`,
		`{"t":12,"k":"ret","op":"TryDequeue()","res":"Fail","p":"session-7"}`,
		`{"k":"stuck"}`,
		`{"res":"ok","k":"ret","t":3}`,
		`{}`,
		`{"T":1,"K":"call","Op":"A()"}`,
		`{"t":1,"t":2,"k":"call","k":"ret"}`,
		`{"t":01,"k":"call"}`,
		`{"t":-1,"k":"call"}`,
		`{"t":1e3,"k":"call"}`,
		`{"t":4294967296,"k":"call"}`,
		`{"t":null,"k":null,"op":null}`,
		`{"t":"1","k":2}`,
		`null`,
		`A`,
		"{\"t\":1,\"k\":\"call\",\"op\":\"caf\x80()\"}",
		"{\"t\":1,\"k\":\"call\",\"op\":\"tab\t()\"}",
		`{"t":1,"k":"call","op":"q\"uote()"}`,
		`{"t":1,"k":"call","op":"A()"}`,
		`{"t":1,"k":"call","op":"A()"} `,
		` {"t":1,"k":"call","op":"A()"}`,
		`{"t":1, "k":"call"}`,
		`{"t":1,"k":"call","op":"A()","x":true}`,
		`{"t":1,"k":"call","op":"A()"}}`,
		`{"t":1,"k":"call",}`,
		`{"t":1,"k":"call"`,
		`{"t":,"k":"call"}`,
		`{"t"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := scanEvent(line)
		if !ok {
			return
		}
		var want TraceEvent
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("scanner accepted %q as %+v, encoding/json rejects it: %v", line, got, err)
		}
		if got != want {
			t.Fatalf("on %q the scanner returns %+v, encoding/json %+v", line, got, want)
		}
	})
}

// FuzzObservationFile holds Parse to the format Write defines: on arbitrary
// input it returns an error, or a file whose specification, written and
// parsed again, exports the same histories. The seeds are a stuck and a full
// observation, and in their place four histories that are not serial.
func FuzzObservationFile(f *testing.F) {
	const file = `<observationset>
  <observation>
    <thread id="A">1</thread>
    <thread id="B">2</thread>
    <op id="1" name="Add">value="200" result="ok"</op>
    <op id="2" name="TryTake">result="200"</op>
    <history>%s</history>
  </observation>
  <observation>
    <thread id="A">1 2B</thread>
    <thread id="T26">3</thread>
    <op id="1" name="Set">result="ok"</op>
    <op id="2" name="Wait&amp;&lt;&quot;" />
    <op id="3" name="Reset">result="ok"</op>
    <history>1[ ]1 3[ ]3 2[ #</history>
  </observation>
</observationset>`
	for _, h := range []string{"1[ ]1 2[ ]2", "2[ ]2 1[ ]1", "", "1[ 2[ ]2 ]1", "1[", "1[ ]1 1[ ]1", "1[ ]2 2[ ]1"} {
		f.Add(fmt.Sprintf(file, h))
	}
	f.Fuzz(func(t *testing.T, in string) {
		parsed, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		want := parsed.ToSpec().Export()
		var buf bytes.Buffer
		if err := Write(&buf, parsed.ToSpec()); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("Parse accepted %q, but not what Write made of it: %v\n%s", in, err, buf.String())
		}
		if got := again.ToSpec().Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("on %q the written file reads back as %v, want %v", in, got, want)
		}
	})
}

// TestDecodedStringsOwnership: a line decoded from a string keeps substrings
// of it when scanned and strings of its own when encoding/json decodes it; a
// line decoded from a []byte keeps nothing of the buffer either way, so a
// RawReader's events outlive the scanner's next read.
func TestDecodedStringsOwnership(t *testing.T) {
	for _, c := range []struct {
		line    string
		scanned bool
	}{
		{`{"t":1,"k":"call","op":"A()","p":"x"}`, true},
		{`{"t": 1, "k": "call", "op": "A()", "p": "x"}`, false},
		{`{"t":1,"k":"call","op":"A(\"q\")","p":"x"}`, false},
	} {
		want, _, err := decodeLine(c.line)
		if err != nil {
			t.Fatal(err)
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(c.line)))
		for _, s := range []string{want.Op, want.P} {
			at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if inside := start <= at && at < start+uintptr(len(c.line)); inside != c.scanned {
				t.Errorf("%s: %q points into the line: %v, want %v", c.line, s, inside, c.scanned)
			}
		}
		buf := []byte(c.line)
		got, _, err := decodeLine(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if got != want {
			t.Errorf("%s: decoded from bytes %+v after the buffer was overwritten, from the string %+v", c.line, got, want)
		}
	}
}

// TestJSONLScannerTakesWriterOutput: the lines WriteTrace and the streaming
// service's clients emit are the ones the scanner is for; if it declined them
// every test would still pass, through encoding/json, at five times the cost.
func TestJSONLScannerTakesWriterOutput(t *testing.T) {
	for _, ev := range []TraceEvent{
		{T: 0, K: "call", Op: "Enqueue(10)"},
		{T: 7, K: "ret", Op: "TryDequeue()", Res: "Fail"},
		{T: 123456789, K: "call", Op: "Add(3)", P: "3"},
		{K: "stuck"},
	} {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := scanEvent(line); !ok || got != ev {
			t.Errorf("scanEvent(%s) = %+v, %v; want %+v", line, got, ok, ev)
		}
	}
}
