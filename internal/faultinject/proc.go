package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"lineup/internal/core"
	"lineup/internal/dist"
)

// Process-level fault injection for the distributed coordinator: where
// Harness injects faults *inside* subject operations (exercising the
// explorer's containment), ProcPlan and FlakyLauncher disrupt whole worker
// runs (exercising the coordinator's lease recovery). The plan is a pure
// function of (seed, seq, attempt), so a disrupted distributed run is
// reproducible and its merged result can be pinned bit-identical to the
// undisrupted one.

// ProcFault is one way a worker process can misbehave.
type ProcFault int

const (
	// ProcNone runs the unit normally.
	ProcNone ProcFault = iota
	// ProcCrash makes the run die immediately — the moral equivalent of a
	// worker panic or kill -9 before any progress.
	ProcCrash
	// ProcHang makes the worker go silent without exiting: no heartbeats, no
	// result, until the coordinator revokes the lease.
	ProcHang
	// ProcStall heartbeats once and then goes silent mid-unit — a worker
	// that lived long enough to look healthy before wedging.
	ProcStall
	// ProcKill runs the inner launcher under a child context and cancels it
	// at the first heartbeat: under dist.ExecLauncher, a kill -9 of a worker
	// process that has started its unit.
	ProcKill
)

func (f ProcFault) String() string {
	switch f {
	case ProcNone:
		return "none"
	case ProcCrash:
		return "crash"
	case ProcHang:
		return "hang"
	case ProcStall:
		return "stall"
	case ProcKill:
		return "kill"
	}
	return fmt.Sprintf("ProcFault(%d)", int(f))
}

// ErrInjectedCrash is the error a ProcCrash run returns.
var ErrInjectedCrash = errors.New("faultinject: injected worker crash")

// ErrInjectedKill is the error a ProcKill run returns when its unit finished
// before the kill landed: the injected fault costs the lease all the same.
var ErrInjectedKill = errors.New("faultinject: worker finished before the injected kill arrived")

// ProcPlan decides deterministically which (unit, attempt) runs are
// disrupted. Faults fire on first attempts only by default (Repeat extends
// them to retries up to Repeat extra times), so a finite retry budget always
// suffices to finish — except in tests that *want* poisoning, which set
// Repeat high enough to exhaust the budget.
type ProcPlan struct {
	// Seed scrambles which units are hit.
	Seed int64
	// Every selects roughly one in Every units for disruption (<= 0: none).
	Every int
	// Fault is the disruption applied to selected units.
	Fault ProcFault
	// Repeat additionally disrupts the first Repeat retries of a selected
	// unit. Repeat >= the coordinator's retry budget forces poisoning.
	Repeat int

	injected atomic.Int64
}

// fault returns the disruption for one leased run. The mix is a cheap
// integer hash — stable across runs and processes.
func (p *ProcPlan) fault(seq, attempt int) ProcFault {
	if p == nil || p.Every <= 0 || p.Fault == ProcNone {
		return ProcNone
	}
	if attempt > 1+p.Repeat {
		return ProcNone
	}
	// splitmix64 finalizer: a weaker mix leaves h's low bits a function of
	// seed alone, making Every=2 hit all units or none.
	h := uint64(seq)*0x9E3779B97F4A7C15 + uint64(p.Seed)*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h%uint64(p.Every) == 0 {
		return p.Fault
	}
	return ProcNone
}

// Injections reports how many runs the plan disrupted.
func (p *ProcPlan) Injections() int { return int(p.injected.Load()) }

// FlakyLauncher wraps a dist.Launcher with a ProcPlan: selected runs crash,
// hang, stall, or are killed instead of (or while) doing their work.
// Undisrupted runs pass straight through, and a disrupted unit's retries
// succeed once the plan stops firing — which is exactly the at-least-once
// recovery path the coordinator must survive without changing the merged
// result.
type FlakyLauncher struct {
	Inner dist.Launcher
	Plan  *ProcPlan
}

func (l *FlakyLauncher) Run(ctx context.Context, spec dist.UnitSpec, heartbeat func()) (*core.UnitReport, error) {
	switch l.Plan.fault(spec.Seq, spec.Attempt) {
	case ProcCrash:
		l.Plan.injected.Add(1)
		return nil, ErrInjectedCrash
	case ProcHang:
		l.Plan.injected.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	case ProcStall:
		l.Plan.injected.Add(1)
		heartbeat()
		<-ctx.Done()
		return nil, ctx.Err()
	case ProcKill:
		l.Plan.injected.Add(1)
		kctx, kill := context.WithCancel(ctx)
		defer kill()
		if _, err := l.Inner.Run(kctx, spec, func() { heartbeat(); kill() }); err != nil {
			return nil, err
		}
		return nil, ErrInjectedKill
	}
	return l.Inner.Run(ctx, spec, heartbeat)
}
