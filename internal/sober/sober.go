// Package sober approximates the relaxed-memory check of the paper's
// Section 5.7: "the CHESS model checker does not directly enumerate the
// relaxed behaviors of the target architecture; instead it checks for
// potential violations of sequential consistency using a special algorithm
// similar to data race detection" (Burckhardt & Musuvathi, CAV 2008). The
// paper ran that check on the .NET classes and "did not find any such
// issues".
//
// This package detects the store-buffer (TSO) vulnerability pattern in
// sequentially consistent execution traces: thread t performs a plain write
// W(x) followed — with no intervening synchronization that would drain the
// store buffer — by a plain read R(y) of a different location, while thread
// u symmetrically performs W(y) ... R(x), and the two threads' access pairs
// are unordered by happens-before. Under TSO both reads could then see the
// pre-write values (the Dekker pattern), an outcome no interleaving of the
// SC semantics produces. Implementations whose cross-thread protocols go
// through volatile/interlocked accesses or monitors (as the paper observed
// of the .NET classes) never exhibit the pattern.
package sober

import (
	"fmt"

	"lineup/internal/race"
	"lineup/internal/sched"
)

// Pair is a store-buffer reordering candidate: a plain write followed by a
// plain read of a different location with no synchronization between them.
type Pair struct {
	Thread   sched.ThreadID
	WriteLoc string
	ReadLoc  string
	WriteOp  int
	ReadOp   int
}

// Violation is a potential SC violation under TSO: two cross-thread
// candidate pairs over the same two locations, unordered by happens-before.
type Violation struct {
	First  Pair
	Second Pair
}

func (v Violation) String() string {
	return fmt.Sprintf("potential SC violation under TSO (store-buffer pattern): "+
		"T%d W(%s);R(%s) vs T%d W(%s);R(%s)",
		v.First.Thread, v.First.WriteLoc, v.First.ReadLoc,
		v.Second.Thread, v.Second.WriteLoc, v.Second.ReadLoc)
}

type pairStamp struct {
	pair  Pair
	write race.VC // thread clock at the write
	read  race.VC // thread clock at the read
}

// Analyze scans one execution trace for the store-buffer pattern and
// returns the violations found (deduplicated by location pair and threads).
func Analyze(trace []sched.MemEvent) []Violation {
	threads := make(map[sched.ThreadID]*race.VC)
	locks := make(map[int]race.VC)
	syncLoc := make(map[int]race.VC)
	tvc := func(t sched.ThreadID) *race.VC {
		v, ok := threads[t]
		if !ok {
			nv := race.NewVC(t)
			v = &nv
			threads[t] = v
		}
		return v
	}

	// pendingWrite[t] is the last plain write of t not yet followed by a
	// synchronization (which would drain the store buffer).
	type pw struct {
		loc   int
		name  string
		op    int
		stamp race.VC
	}
	pendingWrite := make(map[sched.ThreadID]*pw)
	var pairs []pairStamp

	for _, ev := range trace {
		v := tvc(ev.Thread)
		v.Grow(int(ev.Thread) + 1)
		switch ev.Kind {
		case sched.MemAcquire:
			if l, ok := locks[ev.Loc]; ok {
				v.Join(l)
			}
			delete(pendingWrite, ev.Thread) // fence: buffer drained
		case sched.MemRelease:
			locks[ev.Loc] = v.Clone()
			v.Tick(ev.Thread)
			delete(pendingWrite, ev.Thread)
		case sched.MemAtomicLoad:
			if l, ok := syncLoc[ev.Loc]; ok {
				v.Join(l)
			}
			// Loads do not drain the buffer under TSO, but a volatile load
			// orders subsequent plain reads after it; conservatively keep
			// the pending write (TSO allows W -> volatile-R reordering of
			// the *visibility*, the interesting pattern survives).
		case sched.MemAtomicStore, sched.MemAtomicRMW:
			nv := v.Clone()
			if l, ok := syncLoc[ev.Loc]; ok {
				nv.Join(l)
				if ev.Kind == sched.MemAtomicRMW {
					v.Join(l)
				}
			}
			syncLoc[ev.Loc] = nv
			v.Tick(ev.Thread)
			delete(pendingWrite, ev.Thread) // interlocked ops fence on x86
		case sched.MemWrite:
			pendingWrite[ev.Thread] = &pw{loc: ev.Loc, name: ev.Name, op: ev.Op, stamp: v.Clone()}
		case sched.MemRead:
			if w := pendingWrite[ev.Thread]; w != nil && w.loc != ev.Loc {
				pairs = append(pairs, pairStamp{
					pair: Pair{
						Thread:   ev.Thread,
						WriteLoc: w.name,
						ReadLoc:  ev.Name,
						WriteOp:  w.op,
						ReadOp:   ev.Op,
					},
					write: w.stamp,
					read:  v.Clone(),
				})
			}
		}
	}

	// Match symmetric pairs: t writes x reads y, u writes y reads x, with
	// neither pair ordered before the other.
	var out []Violation
	seen := make(map[string]bool)
	for i := 0; i < len(pairs); i++ {
		for j := i + 1; j < len(pairs); j++ {
			a, b := pairs[i], pairs[j]
			if a.pair.Thread == b.pair.Thread {
				continue
			}
			if a.pair.WriteLoc != b.pair.ReadLoc || a.pair.ReadLoc != b.pair.WriteLoc {
				continue
			}
			// Ordered pairs cannot both read stale values.
			if a.read.Leq(b.write) || b.read.Leq(a.write) {
				continue
			}
			key := fmt.Sprintf("%d|%d|%s|%s", a.pair.Thread, b.pair.Thread, a.pair.WriteLoc, a.pair.ReadLoc)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Violation{First: a.pair, Second: b.pair})
		}
	}
	return out
}
