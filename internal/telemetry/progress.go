package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// progressEvery is how often the live line is repainted.
const progressEvery = 200 * time.Millisecond

// Progress renders a single live status line from a collector's counters,
// the third reader of the table beside /debug/vars and the event trace: tests
// or work units done against the plan, executions and their rate, an ETA, the
// exploration's shards, phase-2 executions per distinct history, and a
// streaming server's events, checked operations and backlog. A part of the
// line appears once its counters are non-zero. Every number is a sum over
// whatever shares the collector, so concurrent checks add up instead of
// overwriting each other.
//
// NewProgress starts one goroutine that repaints the line; Finish stops it,
// waits for it, and paints the final line. A nil *Progress is a valid no-op.
type Progress struct {
	w     io.Writer
	c     *Collector
	label string
	start time.Time
	width int // widest line painted so far, in runes, for clean overwrites

	stop, exited chan struct{}
	finish       sync.Once
}

// NewProgress starts a progress line writing to w and reading c (nil renders
// the label alone). The label prefixes every paint.
func NewProgress(w io.Writer, c *Collector, label string) *Progress {
	p := &Progress{w: w, c: c, label: label, start: time.Now(),
		stop: make(chan struct{}), exited: make(chan struct{})}
	go p.run()
	return p
}

func (p *Progress) run() {
	defer close(p.exited)
	tick := time.NewTicker(progressEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.paint(p.line(time.Since(p.start)))
		}
	}
}

// Finish stops the repainting goroutine and waits for it to exit, then
// paints the final line and ends it with a newline. Later calls do nothing.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.finish.Do(func() {
		close(p.stop)
		<-p.exited
		p.paint(p.line(time.Since(p.start)))
		fmt.Fprintln(p.w)
	})
}

// line renders the counters as they are now, elapsed into the run.
func (p *Progress) line(elapsed time.Duration) string {
	c := p.c
	parts := []string{p.label}
	done, planned := c.Get(TestsDone), c.Get(TestsPlanned)
	if planned > 0 || done > 0 {
		parts = append(parts, fmt.Sprintf("tests %s", ofPlan(done, planned)))
	}
	if units := c.Get(DistUnits); units > 0 {
		// A run of work units times its ETA by them.
		done, planned = c.Get(DistUnitsDone), units
		parts = append(parts, fmt.Sprintf("units %s", ofPlan(done, planned)))
	}
	if execs := c.Get(ExecutionsDone); execs > 0 {
		parts = append(parts, fmt.Sprintf("%d execs", execs))
		if secs := elapsed.Seconds(); secs > 0.1 {
			parts = append(parts, fmt.Sprintf("%.0f exec/s", float64(execs)/secs))
		}
	}
	if done > 0 && done < planned {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(planned-done))
		parts = append(parts, fmt.Sprintf("ETA %s", roundETA(eta)))
	}
	if shards := c.Get(Shards); shards > 0 {
		parts = append(parts, fmt.Sprintf("shards %d/%d, %d splits", c.Get(ShardsDone), shards, c.Get(ShardSplits)))
	}
	if hists := c.Get(HistCacheEntries); hists > 0 {
		parts = append(parts, fmt.Sprintf("%.1f execs/history", float64(c.Get(HistCacheHits)+hists)/float64(hists)))
	}
	if events := c.Get(ServeEventsIngested); events > 0 {
		// Applied is read before routed, so the backlog is never negative.
		applied := c.Get(ServeEventsApplied)
		parts = append(parts, fmt.Sprintf("%d events, %d ops checked, backlog %d",
			events, c.Get(ServeOpsChecked), c.Get(ServeEventsRouted)-applied))
	}
	return strings.Join(parts, " · ")
}

// ofPlan renders done against a plan, or done alone when nothing was planned.
func ofPlan(done, planned int64) string {
	if planned > 0 {
		return fmt.Sprintf("%d/%d", done, planned)
	}
	return fmt.Sprint(done)
}

// paint overwrites the previous line with line, padding with spaces to the
// widest line so far. Width is counted in runes: "·" is one column but two
// bytes.
func (p *Progress) paint(line string) {
	n := utf8.RuneCountInString(line)
	pad := max(p.width-n, 0)
	p.width = max(p.width, n)
	fmt.Fprintf(p.w, "\r%s%s", line, strings.Repeat(" ", pad))
}

// roundETA coarsens an ETA so the display does not flicker through
// millisecond noise.
func roundETA(d time.Duration) time.Duration {
	switch {
	case d > time.Minute:
		return d.Round(time.Second)
	case d > time.Second:
		return d.Round(100 * time.Millisecond)
	}
	return d.Round(time.Millisecond)
}
