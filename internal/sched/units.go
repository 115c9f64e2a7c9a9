package sched

// A work unit is a serializable DFS frontier: SplitUnits carves the schedule
// tree into self-contained subtree descriptions, and ExploreUnit explores
// exactly one of them (the root unit WorkUnit{} is the whole tree; a unit with
// Floor 0 resumes a sequential exploration mid-run). Together they partition
// the sequential exploration — every execution, decision, and sleep-set skip of
// Explore is accounted by exactly one ExploreUnit call (the split's own
// discovery executions are reported separately and never merged) — so a
// coordinator that sums per-unit stats reproduces the sequential totals
// bit-identically regardless of how units are assigned, reassigned, or
// replayed. Units carry no pointers and marshal to JSON, which is what lets
// internal/dist hand them to worker processes as files.

// DefaultShardDepth is the number of decision levels SplitUnits pre-splits
// when its depth argument is zero. Two levels give roughly (enabled
// threads)^2 units.
const DefaultShardDepth = 2

// WorkUnit is one self-contained slice of a depth-first exploration: the
// realized branch path of the subtree's leftmost execution, with the first
// Floor decision levels pinned (they identify the subtree; a worker never
// backtracks below them) and the retired-branch records a resumed sleep-set
// reduction needs at every level of the path.
//
// A unit is a pure function of the program: replaying Path from the root
// reproduces the leftmost execution, and the DFS below Floor then visits the
// subtree in sequential order. Replay is idempotent — running a unit twice
// (or on two workers) yields byte-identical reports — which is what makes
// at-least-once distribution with lease reassignment safe.
type WorkUnit struct {
	// Seq is the unit's index in generation order. Units partition the
	// sequential exploration contiguously: every execution of unit k precedes
	// every execution of unit k+1 in the sequential DFS order, so (Seq, visit
	// index) totally orders all executions exactly as Explore would visit
	// them.
	Seq int `json:"seq"`
	// Path is the realized branch path of the subtree's leftmost execution
	// (every decision level it reached); the replaying worker seeds its first
	// execution from it. A path cut after the level the DFS last advanced —
	// the frontier before that execution ran — is equally valid: the replay
	// creates the missing levels itself, as the uninterrupted DFS would.
	Path []int `json:"path"`
	// Floor is the number of pinned prefix levels; the worker's backtracking
	// is confined to levels >= Floor.
	Floor int `json:"floor"`
	// Explored carries the retired-branch records of every level of Path at
	// generation time (reduction only). Sleep sets are otherwise a
	// deterministic function of the branch path, but these retired branches
	// describe finished subtrees the replay never revisits: without them the
	// replayed DFS could neither prune nor count like the sequential one.
	Explored [][]BranchRecord `json:"explored,omitempty"`
}

// SplitStats summarizes a SplitUnits run.
type SplitStats struct {
	// Units is the number of work units emitted.
	Units int
	// DiscoveryExecutions counts the generator's own executions (one per
	// unit: each unit's leftmost). They are replayed — and counted — by the
	// unit's worker, so they must NOT be merged into distributed totals.
	DiscoveryExecutions int
	// Pruned is the generator's share of the sleep-set skip count: skips at
	// pinned prefix levels (creation scans and prefix backtracking). Workers
	// count all remaining skips, so sequential Pruned = SplitStats.Pruned +
	// the sum of per-unit ExploreStats.Pruned. Carry it into the merge.
	Pruned int
}

// SplitUnits walks the schedule tree of prog backtracking only within the
// first depth decision levels (0 selects DefaultShardDepth), emitting each
// prefix's subtree as a WorkUnit. The discovery execution that finds a unit is
// re-run by whichever worker claims it, so units are replayable on processes
// that share nothing with the generator.
//
// Failed discovery executions (panic, hang, leak) do not abort the split:
// the failure belongs to some unit's subtree and the unit's worker will
// deterministically rediscover it, where the caller's failure policy applies.
// cfg.ContinueOnFailure is therefore ignored here. ErrBudget is returned if
// cfg.MaxExecutions discovery executions did not cover the tree.
func SplitUnits(cfg ExploreConfig, prog Program, depth int) ([]WorkUnit, SplitStats, error) {
	if depth <= 0 {
		depth = DefaultShardDepth
	}
	cfg.ContinueOnFailure = true
	co := newCoordinator(cfg)
	e := newExplorer(cfg, co)
	var units []WorkUnit
	e.generate(prog, depth, func(floor int) {
		u := WorkUnit{Seq: len(units), Path: []int(pathOf(e.stack)), Floor: floor}
		if e.red == ReductionSleep {
			u.Explored = exploredOf(e.stack)
		}
		units = append(units, u)
	})
	// ContinueOnFailure leaves the budget as the only way to stop early.
	var err error
	if co.truncated {
		err = ErrBudget
	}
	stats := e.take()
	return units, SplitStats{Units: len(units), DiscoveryExecutions: stats.Executions, Pruned: stats.Pruned}, err
}

// ExploreUnit enumerates the schedules of u's subtree and calls visit for
// every execution outcome with its position, in sequential DFS order. The first execution replays u.Path (it is the unit's leftmost
// execution, counted here, not by the generator); subsequent executions
// backtrack within levels >= u.Floor. Semantics otherwise follow Explore:
// visit returning false stops the unit early, a failed execution aborts with
// its error unless cfg.ContinueOnFailure hands it to visit, and
// cfg.MaxExecutions caps this unit's executions (ErrBudget on exhaustion).
//
// Over all units of a SplitUnits run, the concatenated visit sequences equal
// the sequential Explore visit sequence, and the summed ExploreStats — plus
// SplitStats.Pruned — equal the sequential stats exactly.
func ExploreUnit(cfg ExploreConfig, prog Program, u WorkUnit, visit func(*Outcome, Pos) bool) (ExploreStats, error) {
	return explorePool(cfg, 1, u, func() Program { return prog }, visit)
}
