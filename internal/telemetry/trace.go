package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Event is one entry of the JSONL event trace: a timestamped marker with an
// optional duration and a counter snapshot taken when it was emitted. The
// trace is an append-only in-memory log; it is written out once at the end
// of a run (callers stream it through obsfile.AtomicWriteFile so a crash
// never leaves a torn trace behind).
type Event struct {
	// TMS is the emission time in milliseconds since the collector epoch.
	TMS float64 `json:"t_ms"`
	// Kind classifies the event ("span", "test", "run", ...).
	Kind string `json:"ev"`
	// Name identifies the event within its kind (a phase or class name).
	Name string `json:"name,omitempty"`
	// DurMS is the event's duration in milliseconds, 0 for point events.
	DurMS float64 `json:"dur_ms,omitempty"`
	// Counters is the counter snapshot at emission time.
	Counters Snap `json:"counters"`
}

// ms renders a duration the way the trace and /debug/vars carry one.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// event stamps an event with the time since the epoch and the counters now.
func (c *Collector) event(kind, name string, dur time.Duration) Event {
	return Event{TMS: ms(time.Since(c.start)), Kind: kind, Name: name, DurMS: ms(dur), Counters: c.Snapshot()}
}

// Emit appends an event with the current counter snapshot to the trace.
func (c *Collector) Emit(kind, name string, dur time.Duration) {
	if c == nil {
		return
	}
	ev := c.event(kind, name, dur)
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// WriteTrace writes the event trace as JSONL — one event object per line,
// ending with a synthetic "final" event carrying the closing counter
// snapshot — so the file is greppable and streams into any JSONL tool. The
// signature matches the write callback of obsfile.AtomicWriteFile:
//
//	obsfile.AtomicWriteFile(path, collector.WriteTrace)
func (c *Collector) WriteTrace(w io.Writer) error {
	if c == nil {
		return fmt.Errorf("telemetry: cannot write a trace from a nil collector")
	}
	enc := json.NewEncoder(w)
	for _, ev := range c.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return enc.Encode(c.event("final", "", 0))
}

// ReadTraceEvents parses a JSONL trace written by WriteTrace, for tests and
// post-hoc tooling.
func ReadTraceEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: parsing trace event %d: %w", len(out), err)
		}
		out = append(out, ev)
	}
}
