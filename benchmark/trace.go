package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request (a test, a
// trace, a server lifetime) share Req. Parent is the id of the span this one
// is accounted under, or -1. A re-execution span (explore-only replay of a
// phase) runs after its parent in wall-clock time but is still its child:
// every stage is stateless and deterministic, so the replay costs what the
// same work cost inside the parent, and subtracting it leaves the parent's
// own work.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     string  `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// recorder keeps spans in memory until the run ends. It is used from the
// harness goroutine only. A nil recorder records nothing, which is the
// untraced run.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(name, req string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartUS: float64(time.Since(r.t0)) / float64(time.Microsecond)})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	r.spans[id].EndUS = float64(time.Since(r.t0)) / float64(time.Microsecond)
	return r.spans[id].dur()
}

// total is the summed duration of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var t time.Duration
	if r == nil {
		return 0
	}
	for _, s := range r.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// selfTimes returns, per span name, the summed duration minus the summed
// duration of direct children.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	if r == nil {
		return self
	}
	for _, s := range r.spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// workloadSpans are the spans of one workload's traced run; span ids are
// local to it.
type workloadSpans struct {
	workload string
	spans    []span
}

// writeTrace dumps the spans as JSON lines, each tagged with its workload.
func writeTrace(path string, all []workloadSpans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ws := range all {
		for _, s := range ws.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{ws.workload, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
