package sched

import (
	"fmt"
	"math/rand"

	"lineup/internal/telemetry"
)

// Strategy selects a sampling scheduler for ExploreRandom.
type Strategy int

const (
	// StrategyWalk is a uniform random walk: every decision picks a
	// uniformly random enabled thread.
	StrategyWalk Strategy = iota
	// StrategyPCT is probabilistic concurrency testing (Burckhardt et al.,
	// ASPLOS 2010, the search-prioritization family the paper cites as
	// CHESS heuristics [5]): threads get random priorities, the
	// highest-priority enabled thread runs, and at d-1 random change points
	// the running thread's priority drops below everyone else's. With depth
	// d it finds any bug of depth d with probability >= 1/(n*k^(d-1)).
	StrategyPCT
)

func (s Strategy) String() string {
	if s == StrategyPCT {
		return "pct"
	}
	return "walk"
}

// MarshalText and UnmarshalText give a Strategy its one text form ("walk",
// "pct"; empty reads as walk).
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *Strategy) UnmarshalText(b []byte) error {
	switch string(b) {
	case "walk", "":
		*s = StrategyWalk
	case "pct":
		*s = StrategyPCT
	default:
		return fmt.Errorf("sched: unknown sampling strategy %q (want walk or pct)", b)
	}
	return nil
}

// RandomConfig parameterizes ExploreRandom.
type RandomConfig struct {
	Config
	// Runs is the number of independent sampled executions.
	Runs int
	// Seed makes the sample reproducible.
	Seed int64
	// Strategy selects the sampling scheduler.
	Strategy Strategy
	// Depth is the PCT bug depth d (priority change points = d-1); ignored
	// by StrategyWalk. Zero means 3.
	Depth int
	// Steps is the PCT estimate k of the execution length in decisions;
	// zero means 64.
	Steps int
	// ContinueOnFailure hands failed executions (panic, hang, leak) to the
	// visit callback instead of aborting the sampling run, mirroring
	// ExploreConfig.ContinueOnFailure.
	ContinueOnFailure bool
	// Telemetry, when non-nil, receives per-execution counters, mirroring
	// ExploreConfig.Telemetry.
	Telemetry *telemetry.Collector
}

// ExploreRandom samples schedules of prog instead of enumerating them: it
// performs cfg.Runs independent executions under the chosen strategy and
// hands each outcome to visit with its arrival index as a one-level Pos
// (stopping early if visit returns false).
// Unlike Explore it gives no coverage guarantee, but it scales to tests far
// beyond exhaustive reach; any violation found on a sampled schedule is
// still a true violation.
func ExploreRandom(cfg RandomConfig, prog Program, visit func(*Outcome, Pos) bool) (ExploreStats, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stats ExploreStats
	pos := make(Pos, 1)
	// The runs share worker goroutines and scheduler buffers, as an explorer's
	// executions do.
	var p pool
	defer p.retire()
	for i := 0; i < cfg.Runs; i++ {
		var ctrl Controller
		switch cfg.Strategy {
		case StrategyPCT:
			ctrl = newPCT(rng, cfg.Depth, cfg.Steps)
		default:
			ctrl = &walkController{rng: rng}
		}
		cfg.Telemetry.Add(telemetry.ExecutionsStarted, 1)
		s := NewScheduler(cfg.Config, ctrl)
		s.pool = &p
		out := s.Run(prog)
		recordOutcomeTelemetry(cfg.Telemetry, out)
		stats.Executions++
		stats.Decisions += out.Decisions
		if k := out.FailureKind(); k != FailNone && !cfg.ContinueOnFailure {
			return stats, out.FailureError()
		}
		pos[0] = i
		if !visit(out, pos) {
			return stats, nil
		}
	}
	return stats, nil
}

type walkController struct {
	rng *rand.Rand
}

func (w *walkController) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	return enabled[w.rng.Intn(len(enabled))]
}

// pctController implements the PCT scheduler. Priorities are assigned
// lazily as threads first appear; lower value = lower priority.
type pctController struct {
	rng          *rand.Rand
	priority     map[ThreadID]int
	changePoints map[int]bool // decision indices where the current priority drops
	decision     int
	lowWater     int // decreasing counter for dropped priorities
}

func newPCT(rng *rand.Rand, depth, steps int) *pctController {
	if depth <= 0 {
		depth = 3
	}
	if steps <= 0 {
		steps = 32
	}
	cps := make(map[int]bool, depth-1)
	for i := 0; i < depth-1; i++ {
		cps[1+rng.Intn(steps)] = true
	}
	return &pctController{
		rng:          rng,
		priority:     make(map[ThreadID]int),
		changePoints: cps,
		lowWater:     0,
	}
}

func (p *pctController) prio(t ThreadID) int {
	pr, ok := p.priority[t]
	if !ok {
		// Uniformly random initial priority, far above the drop range so
		// that dropped threads always rank below undropped ones. The large
		// range makes collisions negligible; ties break toward the lower
		// thread ID.
		pr = 1<<20 + p.rng.Intn(1<<20)
		p.priority[t] = pr
	}
	return pr
}

func (p *pctController) Pick(cur ThreadID, curEnabled bool, enabled []ThreadID) ThreadID {
	p.decision++
	if p.changePoints[p.decision] && curEnabled {
		// Drop the current thread's priority below every other.
		p.lowWater--
		p.priority[cur] = p.lowWater
	}
	best := enabled[0]
	bestPrio := p.prio(best)
	for _, t := range enabled[1:] {
		if pr := p.prio(t); pr > bestPrio {
			best, bestPrio = t, pr
		}
	}
	return best
}
