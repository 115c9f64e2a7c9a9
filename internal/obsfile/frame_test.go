package obsfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// frameEvents is a small mixed fixture: calls with and without partition
// keys, returns with and without op echoes, and a trailing stuck marker.
func frameEvents() []TraceEvent {
	return []TraceEvent{
		{T: 0, K: "call", Op: "Enqueue(10)", P: "q0"},
		{T: 1, K: "call", Op: "TryDequeue()", P: "q0"},
		{T: 0, K: "ret", Op: "Enqueue(10)", Res: "ok"},
		{T: 1, K: "ret", Res: "Fail"},
		{T: 2, K: "call", Op: "Write(1)"},
		{T: 2, K: "ret", Res: "ok"},
		{T: 0, K: "stuck"},
	}
}

func encodeFrames(t *testing.T, evs []TraceEvent, batchSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if batchSize > 0 {
		fw.BatchSize = batchSize
	}
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

func decodeFrames(t *testing.T, data []byte) []TraceEvent {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(data))
	var out []TraceEvent
	for {
		evs, err := fr.NextBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("NextBatch after %d events: %v", len(out), err)
		}
		out = append(out, evs...)
	}
}

// validatedFrames is the frame stream's validated path — NextBatch decoding
// fed through a fresh StreamTracker, as serve's IngestFrames does with its
// sharded one. It returns the accepted events and the error that stopped it
// (nil at a clean EOF).
func validatedFrames(data []byte) ([]StreamEvent, error) {
	fr := NewFrameReader(bytes.NewReader(data))
	tr := NewStreamTracker()
	var out []StreamEvent
	for {
		evs, err := fr.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		for _, ev := range evs {
			sev, err := tr.Apply(ev, len(out)+1)
			if err != nil {
				return out, err
			}
			out = append(out, sev)
		}
	}
}

// validatedJSONL is the same for the JSONL rendering of evs, through the
// StreamReader.
func validatedJSONL(t *testing.T, evs []TraceEvent) ([]StreamEvent, error) {
	t.Helper()
	var jsonl bytes.Buffer
	for _, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		jsonl.Write(b)
		jsonl.WriteByte('\n')
	}
	sr := NewStreamReader(&jsonl)
	var out []StreamEvent
	for {
		sev, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, sev)
	}
}

// requireSameValidated holds the two validated paths to the same accepted
// prefix and the same accept/reject outcome. Line is transport-specific
// (source line vs event ordinal); all semantic fields must agree.
func requireSameValidated(t *testing.T, evs []TraceEvent, frames []byte) {
	t.Helper()
	js, jerr := validatedJSONL(t, evs)
	bs, berr := validatedFrames(frames)
	if (jerr == nil) != (berr == nil) {
		t.Fatalf("acceptance mismatch after %d/%d events: jsonl err=%v batch err=%v", len(js), len(bs), jerr, berr)
	}
	if len(js) != len(bs) {
		t.Fatalf("accepted prefix: jsonl %d events, batch %d", len(js), len(bs))
	}
	for i := range js {
		js[i].Line, bs[i].Line = 0, 0
		if js[i] != bs[i] {
			t.Fatalf("event %d differs:\njsonl %+v\nbatch %+v", i, js[i], bs[i])
		}
	}
}

// TestFrameRoundTrip pins encode→decode identity across frame boundaries.
func TestFrameRoundTrip(t *testing.T) {
	evs := frameEvents()
	for _, batch := range []int{1, 2, 3, 512} {
		got := decodeFrames(t, encodeFrames(t, evs, batch))
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("batch=%d: round trip mismatch:\ngot  %+v\nwant %+v", batch, got, evs)
		}
	}
}

// TestFrameEmptyStreamIsCleanEOF: zero bytes decode as zero events.
func TestFrameEmptyStreamIsCleanEOF(t *testing.T) {
	if got := decodeFrames(t, nil); len(got) != 0 {
		t.Fatalf("empty stream decoded %d events", len(got))
	}
}

// TestFrameWrongMagicFails: a JSONL body fed to the frame decoder must fail
// with a format diagnostic, not decode garbage.
func TestFrameWrongMagicFails(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader([]byte(`{"t":0,"k":"call","op":"X()"}`)))
	if _, err := fr.NextBatch(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("wrong magic: got err=%v", err)
	}
}

// TestFrameTruncatedFinalFrame is the sticky-error regression (satellite):
// a stream cut mid-frame must surface a structured *TruncatedFrameError with
// the byte offset of the cut frame — at every possible cut point — and the
// error must be sticky, never a silent clean EOF. (The validated path over
// frames in production is serve's IngestFrames:
// TestServeTruncatedFrameStreamFailsStop.)
func TestFrameTruncatedFinalFrame(t *testing.T) {
	evs := frameEvents()
	data := encodeFrames(t, evs, 3) // three frames: 3+3+1 events
	whole := decodeFrames(t, data)
	for cut := len(FrameMagic); cut < len(data); cut++ {
		fr := NewFrameReader(bytes.NewReader(data[:cut]))
		var got []TraceEvent
		var err error
		for {
			var evs []TraceEvent
			evs, err = fr.NextBatch()
			if err != nil {
				break
			}
			got = append(got, evs...)
		}
		if err == io.EOF {
			// A clean EOF is only legitimate at an exact frame boundary, i.e.
			// the decoded events are a prefix of the full stream.
			for i := range got {
				if got[i] != whole[i] {
					t.Fatalf("cut=%d: clean EOF with wrong prefix at event %d", cut, i)
				}
			}
			continue
		}
		var tfe *TruncatedFrameError
		if !errors.As(err, &tfe) {
			t.Fatalf("cut=%d: got %T (%v), want *TruncatedFrameError", cut, err, err)
		}
		if tfe.Offset < 0 || tfe.Offset >= int64(cut) && tfe.Offset != int64(cut) {
			t.Fatalf("cut=%d: truncation offset %d out of range", cut, tfe.Offset)
		}
		// Sticky: the same error again, not EOF.
		if _, err2 := fr.NextBatch(); !errors.As(err2, &tfe) {
			t.Fatalf("cut=%d: error not sticky: second NextBatch gave %v", cut, err2)
		}
	}

	// The validated path carries the same structured error. Cut inside the
	// final frame.
	_, err := validatedFrames(data[:len(data)-2])
	var tfe *TruncatedFrameError
	if !errors.As(err, &tfe) {
		t.Fatalf("validated path: got %v, want *TruncatedFrameError", err)
	}
}

// TestBatchStreamReaderMatchesJSONL pins the two validated paths — frames
// through NextBatch and a StreamTracker, JSONL through the StreamReader — to
// the same StreamEvents on the same event sequence.
func TestBatchStreamReaderMatchesJSONL(t *testing.T) {
	evs := frameEvents()
	requireSameValidated(t, evs, encodeFrames(t, evs, 2))
}

// TestFrameReaderNextBatch pins the frame-granular decode used by the serve
// batch ingest path.
func TestFrameReaderNextBatch(t *testing.T) {
	evs := frameEvents()
	fr := NewFrameReader(bytes.NewReader(encodeFrames(t, evs, 3)))
	var got []TraceEvent
	sizes := []int{}
	for {
		b, err := fr.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(b))
		got = append(got, append([]TraceEvent(nil), b...)...)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("NextBatch mismatch:\ngot  %+v\nwant %+v", got, evs)
	}
	if !reflect.DeepEqual(sizes, []int{3, 3, 1}) {
		t.Fatalf("frame sizes %v, want [3 3 1]", sizes)
	}
}

// BenchmarkTrackerApply prices the tracker on a serial trace of eight
// threads: what ReadTrace pays per event, and serve under its tracker lock.
func BenchmarkTrackerApply(b *testing.B) {
	const ops = 1024
	evs := make([]TraceEvent, 0, 2*ops)
	for i := 0; i < ops; i++ {
		evs = append(evs, TraceEvent{T: i % 8, K: "call", Op: "Enqueue(1)", P: "q"}, TraceEvent{T: i % 8, K: "ret", Res: "ok"})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewStreamTracker()
		for line, ev := range evs {
			if _, err := tr.Apply(ev, line+1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// FuzzBatchFrame drives the frame codec round trip: a byte program derives
// an arbitrary (not necessarily well formed) event sequence, which must
// survive encode→decode bit-identically and agree event-for-event with the
// JSONL path through a validating tracker — same acceptance, same rejection. The decoder must also never panic on the mutated raw frames the
// fuzzer synthesizes from the encodings.
//
// Wired into `make check` via the Makefile fuzz target; run longer with
// `go test -run='^$' -fuzz=FuzzBatchFrame ./internal/obsfile`.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0x01, 0x42, 0x13, 0x37, 0x00, 0xff}, false)
	f.Add([]byte{0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b}, true)
	f.Add(encodeRawSeed(), false)
	f.Fuzz(func(t *testing.T, program []byte, mutate bool) {
		if mutate {
			// Treat the program as a raw frame stream: must not panic, and
			// every error path must be sticky.
			fr := NewFrameReader(bytes.NewReader(program))
			var firstErr error
			for i := 0; i < 1<<16; i++ {
				_, err := fr.NextBatch()
				if err != nil {
					firstErr = err
					break
				}
			}
			if firstErr != nil && firstErr != io.EOF {
				if _, err2 := fr.NextBatch(); !errors.Is(err2, firstErr) && err2.Error() != firstErr.Error() {
					t.Fatalf("decoder error not sticky: %v then %v", firstErr, err2)
				}
			}
			return
		}
		evs := eventsFromProgram(program)
		// Round trip through frames.
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		fw.BatchSize = 3
		for _, ev := range evs {
			if err := fw.WriteEvent(ev); err != nil {
				t.Fatalf("encode: %v", err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		got := decodeFrames(t, buf.Bytes())
		if len(got) != len(evs) {
			t.Fatalf("decoded %d events, want %d", len(got), len(evs))
		}
		for i, want := range evs {
			if got[i] != want {
				t.Fatalf("event %d: %+v != %+v", i, got[i], want)
			}
		}
		// Validated agreement with the JSONL path: same accepted prefix,
		// same accept/reject behavior at the first bad event.
		requireSameValidated(t, evs, buf.Bytes())
	})
}

// eventsFromProgram decodes fuzz bytes into an event sequence over a small
// vocabulary; roughly half the derived sequences violate thread discipline
// somewhere, so validated-path agreement covers rejection too.
func eventsFromProgram(program []byte) []TraceEvent {
	ops := []string{"Enqueue(1)", "Enqueue(2)", "TryDequeue()", ""}
	ress := []string{"ok", "1", "Fail", ""}
	parts := []string{"", "q0", "q1"}
	if len(program) > 64 {
		program = program[:64]
	}
	var evs []TraceEvent
	for i, b := range program {
		ev := TraceEvent{T: int(b>>5) % 5}
		switch b & 3 {
		case 0, 1:
			ev.K, ev.Op, ev.P = "call", ops[b>>2&3], parts[int(b>>4)%3]
		case 2:
			ev.K, ev.Res = "ret", ress[b>>2&3]
		default:
			if b&4 != 0 && i == len(program)-1 {
				ev.K = "stuck"
			} else {
				ev.K, ev.Op, ev.Res = "ret", ops[b>>3&3], ress[b>>2&3]
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// encodeRawSeed gives the mutating arm of FuzzBatchFrame a valid stream to
// start from.
func encodeRawSeed() []byte {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, ev := range []TraceEvent{
		{T: 0, K: "call", Op: "Enqueue(1)", P: "q"},
		{T: 0, K: "ret", Res: "ok"},
	} {
		_ = fw.WriteEvent(ev)
	}
	_ = fw.Close()
	return buf.Bytes()
}
