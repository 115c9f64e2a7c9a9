package obsfile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"lineup/internal/history"
)

// StreamEvent is one validated event of a streaming JSONL history trace: the
// parsed TraceEvent plus the bookkeeping a consumer needs to process the
// trace incrementally — the dense operation index pairing a return with its
// call, the partition key resolved from the call (returns inherit it), and
// the source line for error reporting. A stuck marker is delivered as an
// event with Stuck set and no operation fields.
type StreamEvent struct {
	Thread int
	Kind   history.Kind // Call or Return (meaningless when Stuck)
	Stuck  bool         // the terminal stuck marker of the trace
	Op     string       // operation display name (resolved for returns)
	Result string       // Return events only
	Part   string       // partition key from the "p" field ("" when absent)
	Index  int          // dense op identifier pairing call and return
	Line   int          // 1-based source line
}

// HistoryEvent converts the stream event to the history vocabulary.
func (ev StreamEvent) HistoryEvent() history.Event {
	return history.Event{Thread: ev.Thread, Kind: ev.Kind, Op: ev.Op, Result: ev.Result, Index: ev.Index}
}

// StreamTracker is the thread-discipline state machine of a streaming trace:
// it validates raw TraceEvents one at a time (the same rules ReadTrace
// enforces on a whole file) and resolves each into a StreamEvent. Unlike a
// StreamReader it is not tied to one io.Reader, so a server accepting events
// from several transports (stdin pipe, HTTP requests) can funnel them all
// through a single tracker and keep one global notion of thread discipline.
// A tracker is not safe for concurrent use; serve holds its one tracker
// under a lock. Its full state is exported through State for checkpointing.
type StreamTracker struct {
	threads map[int]*threadState
	open    int // threads with an open call
	next    int
	stuck   bool
	events  int64
}

// threadState is one thread's discipline state. It lives as long as the
// tracker, so a busy stream only looks its threads up.
type threadState struct {
	busy bool
	cur  openCall
}

// openCall records a thread's currently open operation.
type openCall struct {
	index int
	name  string
	part  string
}

// NewStreamTracker returns an empty tracker (no open calls, index 0).
func NewStreamTracker() *StreamTracker {
	return &StreamTracker{threads: make(map[int]*threadState)}
}

// NewShardedTracker returns NewStreamTracker().
//
// Deprecated: the concurrent tracker is gone; serve locks one StreamTracker.
func NewShardedTracker() *StreamTracker { return NewStreamTracker() }

// Apply validates one raw event against the trace discipline and resolves it.
// line is the 1-based source position used in error messages. On error the
// tracker is unchanged and the event must be considered rejected.
func (st *StreamTracker) Apply(ev TraceEvent, line int) (StreamEvent, error) {
	if st.stuck {
		return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: events after the stuck marker", line)
	}
	if ev.T < 0 {
		return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: negative thread index %d", line, ev.T)
	}
	switch ev.K {
	case "call":
		if ev.Op == "" {
			return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: call without an op name", line)
		}
		th := st.threads[ev.T]
		if th == nil {
			th = &threadState{}
			st.threads[ev.T] = th
		} else if th.busy {
			return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: thread %d calls %s while %s is still open",
				line, ev.T, ev.Op, th.cur.name)
		}
		idx := st.next
		st.next++
		th.busy, th.cur = true, openCall{index: idx, name: ev.Op, part: ev.P}
		st.open++
		st.events++
		return StreamEvent{Thread: ev.T, Kind: history.Call, Op: ev.Op, Part: ev.P, Index: idx, Line: line}, nil
	case "ret":
		th := st.threads[ev.T]
		if th == nil || !th.busy {
			return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: thread %d returns without an open call", line, ev.T)
		}
		cur := th.cur
		if ev.Op != "" && ev.Op != cur.name {
			return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: thread %d returns from %s but %s is open",
				line, ev.T, ev.Op, cur.name)
		}
		if ev.P != "" && ev.P != cur.part {
			return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: thread %d returns in partition %q but %s was called in partition %q",
				line, ev.T, ev.P, cur.name, cur.part)
		}
		th.busy = false
		st.open--
		st.events++
		return StreamEvent{Thread: ev.T, Kind: history.Return, Op: cur.name, Result: ev.Res, Part: cur.part, Index: cur.index, Line: line}, nil
	case "stuck":
		st.stuck = true
		st.events++
		return StreamEvent{Stuck: true, Line: line}, nil
	default:
		return StreamEvent{}, fmt.Errorf("obsfile: trace line %d: unknown event kind %q", line, ev.K)
	}
}

// Stuck reports whether the stuck marker has been applied.
func (st *StreamTracker) Stuck() bool { return st.stuck }

// Events returns the count of events successfully applied.
func (st *StreamTracker) Events() int64 { return st.events }

// OpenCalls returns the number of currently open operations.
func (st *StreamTracker) OpenCalls() int { return st.open }

// TrackerState is the serializable snapshot of a StreamTracker, stored in
// serve checkpoints so a restarted service resumes mid-trace with the same
// thread discipline. Next is the first index not yet issued; a checkpoint
// written by the former concurrent tracker, which drew indices in per-thread
// blocks, holds one above the indices it used, and a tracker restored from
// it issues dense indices from there.
type TrackerState struct {
	Open   []OpenCallState `json:"open,omitempty"`
	Next   int             `json:"next"`
	Stuck  bool            `json:"stuck,omitempty"`
	Events int64           `json:"events"`
}

// OpenCallState is one open operation in a TrackerState.
type OpenCallState struct {
	Thread int    `json:"t"`
	Index  int    `json:"i"`
	Op     string `json:"op"`
	Part   string `json:"p,omitempty"`
}

// State snapshots the tracker.
func (st *StreamTracker) State() TrackerState {
	out := TrackerState{Next: st.next, Stuck: st.stuck, Events: st.events}
	for t, th := range st.threads {
		if th.busy {
			out.Open = append(out.Open, OpenCallState{Thread: t, Index: th.cur.index, Op: th.cur.name, Part: th.cur.part})
		}
	}
	return out
}

// RestoreStreamTracker rebuilds a tracker from a snapshot.
func RestoreStreamTracker(s TrackerState) *StreamTracker {
	st := &StreamTracker{threads: make(map[int]*threadState, len(s.Open)), next: s.Next, stuck: s.Stuck, events: s.Events}
	for _, c := range s.Open {
		st.threads[c.Thread] = &threadState{busy: true, cur: openCall{index: c.Index, name: c.Op, part: c.Part}}
	}
	st.open = len(st.threads)
	return st
}

// maxTraceLine is the longest line, newline excluded, either reader accepts.
const maxTraceLine = 1024 * 1024

var errLineTooLong = errors.New("longer than 1 MiB")

// RawReader parses a JSONL trace stream into TraceEvents without applying
// the thread-discipline validation: consumers that funnel several transports
// through one shared StreamTracker (the streaming service) parse with a
// RawReader per transport and validate centrally. Blank lines and '#'
// comments are skipped; parse errors are sticky, as in StreamReader.
type RawReader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewRawReader wraps r in a raw JSONL trace parser.
func NewRawReader(r io.Reader) *RawReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine+len("\r\n"))
	return &RawReader{sc: sc}
}

// Line returns the 1-based line number of the last event returned.
func (rr *RawReader) Line() int { return rr.line }

// Next returns the next parsed (unvalidated) event, or io.EOF at clean end.
func (rr *RawReader) Next() (TraceEvent, error) {
	if rr.err != nil {
		return TraceEvent{}, rr.err
	}
	for rr.sc.Scan() {
		rr.line++
		// Decode straight from the scanner's buffer: decodeLine copies every
		// string it keeps out of a []byte, so the volatile bytes never escape,
		// and the per-line string allocation of Text() stays off the ingest
		// hot path.
		ev, skip, err := decodeLine(rr.sc.Bytes())
		if err != nil {
			rr.err = fmt.Errorf("obsfile: trace line %d: %w", rr.line, err)
			return TraceEvent{}, rr.err
		}
		if !skip {
			return ev, nil
		}
	}
	switch err := rr.sc.Err(); {
	case errors.Is(err, bufio.ErrTooLong):
		rr.err = fmt.Errorf("obsfile: trace line %d: %w", rr.line+1, errLineTooLong)
	case err != nil:
		rr.err = fmt.Errorf("obsfile: reading trace: %w", err)
	default:
		rr.err = io.EOF
	}
	return TraceEvent{}, rr.err
}

// decodeLine decodes one trace line, without its newline, for RawReader (a
// []byte, whose strings it copies) and ReadTrace (a string, whose substrings
// it keeps); skip reports a blank or comment line, and the caller adds the
// line number to an error.
func decodeLine[S string | []byte](line S) (ev TraceEvent, skip bool, err error) {
	if len(line) > maxTraceLine {
		return ev, false, errLineTooLong
	}
	line = trimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return ev, true, nil
	}
	if ev, ok := scanEvent(line); ok {
		return ev, false, nil
	}
	var slow TraceEvent // not &ev, which would move every line's event to the heap
	err = json.Unmarshal([]byte(line), &slow)
	return slow, false, err
}

// trimSpace is strings.TrimSpace or bytes.TrimSpace, by the type of s.
func trimSpace[S string | []byte](s S) S {
	if b, ok := any(s).([]byte); ok {
		return S(bytes.TrimSpace(b))
	}
	return S(strings.TrimSpace(string(s)))
}

// scanEvent decodes a line of the one shape every writer in this tree emits
// — {"t":…,"k":…,"op":…,"res":…,"p":…}: a subset of the five lower-case keys,
// each at most once, t a non-negative decimal without a leading zero, the
// others strings of printable ASCII without '"' or '\', and no whitespace —
// which needs no unescaping, no UTF-8 validation and no reflection. Anything
// else it declines (ok false) and encoding/json decodes the line: the scanner
// reports no error of its own, so encoding/json stays the definition of the
// format, and FuzzJSONLScanner holds the two to the same event on whatever
// the scanner accepts.
func scanEvent[S string | []byte](line S) (ev TraceEvent, ok bool) {
	if len(line) == 0 || line[0] != '{' {
		return ev, false
	}
	seen := 0
	for i := 1; ; i++ { // line[i-1] is the '{' or a ','
		key, colon := plainString(line, i)
		if colon < 0 || colon >= len(line) || line[colon] != ':' {
			return ev, false
		}
		i = colon + 1
		var field int
		var dst *string
		switch string(key) {
		case "t":
			field = 1
		case "k":
			field, dst = 2, &ev.K
		case "op":
			field, dst = 4, &ev.Op
		case "res":
			field, dst = 8, &ev.Res
		case "p":
			field, dst = 16, &ev.P
		}
		if field == 0 || seen&field != 0 {
			return ev, false
		}
		seen |= field
		if dst != nil {
			val, end := plainString(line, i)
			if end < 0 {
				return ev, false
			}
			*dst, i = traceString(val), end
		} else {
			start := i
			for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
				ev.T = ev.T*10 + int(line[i]-'0')
			}
			// At most nine digits, so the value fits an int of any width.
			if n := i - start; n == 0 || n > 9 || (n > 1 && line[start] == '0') {
				return ev, false
			}
		}
		if i >= len(line) || (line[i] != ',' && line[i] != '}') {
			return ev, false
		}
		if line[i] == '}' {
			return ev, i == len(line)-1
		}
	}
}

// plainString returns the contents of the string literal that starts at
// line[i] and the index after its closing quote, or -1 unless there is one
// and it is printable ASCII with no escape in it.
func plainString[S string | []byte](line S, i int) (S, int) {
	if i >= len(line) || line[i] != '"' {
		return line[:0], -1
	}
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return line[i+1 : j], j + 1
		case c < 0x20 || c > 0x7e || c == '\\':
			return line[:0], -1
		}
	}
	return line[:0], -1
}

// traceString copies a []byte into a string (a string stays itself), without
// allocating for the three event kinds, which every line carries.
func traceString[S string | []byte](b S) string {
	switch string(b) {
	case "call":
		return "call"
	case "ret":
		return "ret"
	case "stuck":
		return "stuck"
	}
	return string(b)
}

// StreamReader reads a JSONL history trace incrementally: each Next call
// parses and validates one event without materializing the whole history, so
// arbitrarily long traces are processed in constant memory. Blank lines and
// '#' comments are skipped, exactly as in ReadTrace. The reader is fail-stop:
// after any error every further Next returns the same error, so a malformed
// stream can never wedge or half-advance a consumer.
type StreamReader struct {
	src *RawReader
	tr  *StreamTracker
	err error
}

// NewStreamReader wraps r in a streaming JSONL trace reader with a fresh
// tracker.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{src: NewRawReader(r), tr: NewStreamTracker()}
}

// Tracker exposes the reader's validation state (open calls, event count).
func (sr *StreamReader) Tracker() *StreamTracker { return sr.tr }

// Next returns the next validated event of the trace, or io.EOF at a clean
// end of input. Any other error is sticky.
func (sr *StreamReader) Next() (StreamEvent, error) {
	if sr.err != nil {
		return StreamEvent{}, sr.err
	}
	ev, err := sr.src.Next()
	if err != nil {
		sr.err = err
		return StreamEvent{}, err
	}
	out, err := sr.tr.Apply(ev, sr.src.Line())
	if err != nil {
		sr.err = err
		return StreamEvent{}, err
	}
	return out, nil
}
