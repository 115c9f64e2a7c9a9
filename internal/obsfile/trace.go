package obsfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"lineup/internal/history"
)

// TraceEvent is one line of a JSONL history trace: a concurrent history
// recorded outside the scheduler (e.g. by instrumented production code), one
// event per line. "call" opens an operation on a thread, "ret" closes the
// thread's open operation with its result, and a final "stuck" line marks
// the history stuck (the '#' of Section 2.3). Lines that are blank or start
// with '#' are comments.
//
//	{"t":0,"k":"call","op":"Enqueue(10)"}
//	{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}
//	{"t":1,"k":"call","op":"TryDequeue()"}
//	{"t":1,"k":"ret","op":"TryDequeue()","res":"Fail"}
//
// A call may carry an optional partition key "p" naming the independent
// sub-object it touches (P-compositionality); the streaming monitor routes
// events by it. Returns inherit the key of their call. The batch reader
// accepts and ignores it.
type TraceEvent struct {
	T   int    `json:"t"`             // thread index
	K   string `json:"k"`             // "call", "ret", or "stuck"
	Op  string `json:"op,omitempty"`  // operation display name, e.g. "Enqueue(10)"
	Res string `json:"res,omitempty"` // result string; "ret" events only
	P   string `json:"p,omitempty"`   // partition key; "call" events only
}

// ReadTrace parses a JSONL history trace into a well-formed history. It
// validates the thread discipline line by line: a thread may not call while
// it has an open operation, may not return without one, a "ret" line naming
// an operation must name the thread's open operation, and a "stuck" marker
// must be the last event of the trace. It is the batch face of the
// StreamReader, with the same line decoder, StreamTracker and errors, but it
// holds the whole input as one string and decodes each line in place: the
// history's names and results are substrings of it (bar lines encoding/json
// decodes), and its memory is the input bytes plus the events.
func ReadTrace(r io.Reader) (*history.History, error) {
	var in strings.Builder
	_, readErr := io.Copy(&in, r)
	src := in.String()
	// One event per line at most, and no event line is shorter than {"k":"ret"}.
	h := &history.History{Events: make([]history.Event, 0, min(strings.Count(src, "\n")+1, len(src)/len(`{"k":"ret"}`)))}
	tr := NewStreamTracker()
	for n := 1; src != ""; n++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		ev, skip, err := decodeLine(strings.TrimSuffix(line, "\r"))
		if err != nil {
			return nil, fmt.Errorf("obsfile: trace line %d: %w", n, err)
		}
		if skip {
			continue
		}
		sev, err := tr.Apply(ev, n)
		if err != nil {
			return nil, err
		}
		if sev.Stuck {
			h.Stuck = true
			continue
		}
		h.Events = append(h.Events, sev.HistoryEvent())
	}
	if readErr != nil {
		return nil, fmt.Errorf("obsfile: reading trace: %w", readErr)
	}
	return h, nil
}

// WriteTrace renders a history in the JSONL trace format read by ReadTrace.
func WriteTrace(w io.Writer, h *history.History) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range h.Events {
		ev := TraceEvent{T: e.Thread, Op: e.Op}
		if e.Kind == history.Call {
			ev.K = "call"
		} else {
			ev.K = "ret"
			ev.Res = e.Result
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if h.Stuck {
		if err := enc.Encode(TraceEvent{K: "stuck"}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
