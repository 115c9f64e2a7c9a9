// Package race implements a happens-before data-race detector over the
// shared-memory traces recorded by the scheduler, in the spirit of the
// dynamic race detector included with CHESS that the paper uses for its
// Section 5.6 comparison. It maintains vector clocks per thread, per lock,
// and per synchronizing location (volatile semantics: an atomic store
// releases, an atomic load acquires, a read-modify-write does both), and
// reports pairs of conflicting plain accesses that are not ordered by
// happens-before.
package race

import (
	"fmt"

	"lineup/internal/sched"
)

// VC is a vector clock indexed by thread ID.
type VC []int

// NewVC is the clock thread t starts with: 1 in its own entry.
func NewVC(t sched.ThreadID) VC {
	v := make(VC, int(t)+1)
	v[t] = 1
	return v
}

// Clock is t's entry.
func (v VC) Clock(t sched.ThreadID) int {
	if int(t) < len(v) {
		return v[t]
	}
	return 0
}

// Grow pads v with zeros to n entries.
func (v *VC) Grow(n int) {
	for len(*v) < n {
		*v = append(*v, 0)
	}
}

// Join merges w into v (pointwise maximum).
func (v *VC) Join(w VC) {
	v.Grow(len(w))
	for i, c := range w {
		if c > (*v)[i] {
			(*v)[i] = c
		}
	}
}

// Tick advances t's own entry.
func (v *VC) Tick(t sched.ThreadID) {
	v.Grow(int(t) + 1)
	(*v)[t]++
}

// Clone returns a copy of v.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Leq reports v <= w pointwise.
func (v VC) Leq(w VC) bool {
	for i, c := range v {
		if c > w.Clock(sched.ThreadID(i)) {
			return false
		}
	}
	return true
}

// epoch is a scalar timestamp: the clock of one thread at one access.
type epoch struct {
	thread sched.ThreadID
	clock  int
}

// happensBefore reports whether the access at e is ordered before the
// current time of thread vc.
func (e epoch) happensBefore(vc VC) bool {
	return e.clock <= vc.Clock(e.thread)
}

// Access describes one side of a reported race.
type Access struct {
	Thread sched.ThreadID
	Write  bool
	Op     int // operation index the access belongs to (-1 outside ops)
}

// Race is a reported data race: two unordered conflicting plain accesses to
// the same location.
type Race struct {
	Loc    string
	First  Access
	Second Access
}

func (r Race) String() string {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("race on %s: %s by T%d (op %d) unordered with %s by T%d (op %d)",
		r.Loc, kind(r.First.Write), r.First.Thread, r.First.Op,
		kind(r.Second.Write), r.Second.Thread, r.Second.Op)
}

type locState struct {
	name      string
	lastWrite epoch
	hasWrite  bool
	reads     []epoch // reads since the last write
	writeOp   int
	readOps   []int
	syncVC    VC // release history of the location (volatile semantics)
	hasSync   bool
}

// Detector replays a trace and accumulates races.
type Detector struct {
	threads map[sched.ThreadID]*VC
	locks   map[int]*VC
	locs    map[int]*locState
	races   []Race
	seen    map[string]bool
}

// NewDetector creates an empty detector.
func NewDetector() *Detector {
	return &Detector{
		threads: make(map[sched.ThreadID]*VC),
		locks:   make(map[int]*VC),
		locs:    make(map[int]*locState),
		seen:    make(map[string]bool),
	}
}

func (d *Detector) vc(t sched.ThreadID) *VC {
	v, ok := d.threads[t]
	if !ok {
		nv := NewVC(t)
		d.threads[t] = &nv
		return &nv
	}
	return v
}

func (d *Detector) loc(id int, name string) *locState {
	l, ok := d.locs[id]
	if !ok {
		l = &locState{name: name}
		d.locs[id] = l
	}
	return l
}

func (d *Detector) report(loc string, first, second Access) {
	key := fmt.Sprintf("%s|%v|%v", loc, first, second)
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	d.races = append(d.races, Race{Loc: loc, First: first, Second: second})
}

// Analyze replays one execution trace. It may be called repeatedly with
// traces of different executions; races are deduplicated by location and
// access shape.
func (d *Detector) Analyze(trace []sched.MemEvent) {
	// Reset per-execution state but keep the dedup set: different
	// executions reuse location IDs.
	d.threads = make(map[sched.ThreadID]*VC)
	d.locks = make(map[int]*VC)
	d.locs = make(map[int]*locState)
	for _, ev := range trace {
		vc := d.vc(ev.Thread)
		vc.Grow(int(ev.Thread) + 1)
		switch ev.Kind {
		case sched.MemAcquire:
			lvc, ok := d.locks[ev.Loc]
			if ok {
				vc.Join(*lvc)
			}
		case sched.MemRelease:
			cp := vc.Clone()
			d.locks[ev.Loc] = &cp
			vc.Tick(ev.Thread)
		case sched.MemAtomicLoad:
			l := d.loc(ev.Loc, ev.Name)
			if l.hasSync {
				vc.Join(l.syncVC)
			}
		case sched.MemAtomicStore, sched.MemAtomicRMW:
			l := d.loc(ev.Loc, ev.Name)
			if ev.Kind == sched.MemAtomicRMW && l.hasSync {
				vc.Join(l.syncVC)
			}
			var nv VC
			if l.hasSync {
				nv = l.syncVC.Clone()
				nv.Join(*vc)
			} else {
				nv = vc.Clone()
			}
			l.syncVC = nv
			l.hasSync = true
			vc.Tick(ev.Thread)
		case sched.MemRead:
			l := d.loc(ev.Loc, ev.Name)
			if l.hasWrite && l.lastWrite.thread != ev.Thread && !l.lastWrite.happensBefore(*vc) {
				d.report(ev.Name,
					Access{Thread: l.lastWrite.thread, Write: true, Op: l.writeOp},
					Access{Thread: ev.Thread, Write: false, Op: ev.Op})
			}
			l.reads = append(l.reads, epoch{ev.Thread, vc.Clock(ev.Thread)})
			l.readOps = append(l.readOps, ev.Op)
		case sched.MemWrite:
			l := d.loc(ev.Loc, ev.Name)
			if l.hasWrite && l.lastWrite.thread != ev.Thread && !l.lastWrite.happensBefore(*vc) {
				d.report(ev.Name,
					Access{Thread: l.lastWrite.thread, Write: true, Op: l.writeOp},
					Access{Thread: ev.Thread, Write: true, Op: ev.Op})
			}
			for i, r := range l.reads {
				if r.thread != ev.Thread && !r.happensBefore(*vc) {
					d.report(ev.Name,
						Access{Thread: r.thread, Write: false, Op: l.readOps[i]},
						Access{Thread: ev.Thread, Write: true, Op: ev.Op})
				}
			}
			l.lastWrite = epoch{ev.Thread, vc.Clock(ev.Thread)}
			l.hasWrite = true
			l.writeOp = ev.Op
			l.reads = nil
			l.readOps = nil
		}
	}
}

// Races returns the accumulated (deduplicated) races.
func (d *Detector) Races() []Race { return d.races }
