package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders a single live status line: work units completed against a
// total (tests, benchmark cases, or exploration shards), the execution
// throughput read from the collector, and an ETA extrapolated from the unit
// completion rate. It is the one progress facility shared by the check,
// table2, parallel, and reduction subcommands, replacing their ad-hoc
// ShardProgress printing.
//
// All methods are safe for concurrent use; rendering is throttled so tight
// exploration loops cannot drown the terminal.
type Progress struct {
	w     io.Writer
	c     *Collector
	label string

	mu       sync.Mutex
	total    int
	done     int
	extra    string // free-form suffix (e.g. shard counters)
	last     time.Time
	start    time.Time
	width    int // widest line rendered so far, for clean overwrites
	finished bool
}

// NewProgress creates a progress line writing to w, reading throughput from
// c (which may be nil — the line then omits execution counters). The label
// prefixes every render.
func NewProgress(w io.Writer, c *Collector, label string) *Progress {
	return &Progress{w: w, c: c, label: label, start: time.Now()}
}

// SetTotal sets the number of work units the run will complete.
func (p *Progress) SetTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total = n
	p.mu.Unlock()
}

// Step records n more completed work units and re-renders (throttled).
func (p *Progress) Step(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done += n
	p.renderLocked(false)
	p.mu.Unlock()
}

// SetUnits sets the completed and total unit counts outright (the shard
// explorer reports both monotonically) and re-renders (throttled).
func (p *Progress) SetUnits(done, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done, p.total = done, total
	p.renderLocked(false)
	p.mu.Unlock()
}

// SetExtra sets a free-form suffix appended to the line (e.g. "12 splits").
func (p *Progress) SetExtra(s string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.extra = s
	p.mu.Unlock()
}

// Tick re-renders the line without changing the unit counts, so callers can
// keep the throughput display moving during a long unit of work.
func (p *Progress) Tick() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.renderLocked(false)
	p.mu.Unlock()
}

// Finish renders the final line unconditionally and terminates it with a
// newline. Further calls are no-ops.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.renderLocked(true)
	p.finished = true
	fmt.Fprintln(p.w)
}

// renderLocked paints the line; force bypasses the rate throttle. The
// caller holds p.mu.
func (p *Progress) renderLocked(force bool) {
	if p.finished {
		return
	}
	now := time.Now()
	if !force && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start)
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", p.label, p.done)
	if p.total > 0 {
		fmt.Fprintf(&b, "/%d", p.total)
	}
	if p.c != nil {
		execs := p.c.Get(ExecutionsDone)
		fmt.Fprintf(&b, " · %d execs", execs)
		if secs := elapsed.Seconds(); secs > 0.1 {
			fmt.Fprintf(&b, " · %.0f exec/s", float64(execs)/secs)
		}
	}
	if p.total > 0 && p.done > 0 && p.done < p.total {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		fmt.Fprintf(&b, " · ETA %s", roundETA(eta))
	}
	if p.extra != "" {
		fmt.Fprintf(&b, " · %s", p.extra)
	}
	line := b.String()
	pad := p.width - len(line)
	if pad < 0 {
		pad = 0
	}
	p.width = len(line)
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
