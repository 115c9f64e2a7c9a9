package sched

// PickRecord is one Controller.Pick call of an explored execution: its
// arguments, with the enabled set in the explorer's branch order (cur first
// when enabled, then ascending — a bijection with the ascending set Pick
// receives), and the thread it returned.
type PickRecord struct {
	Cur        ThreadID
	CurEnabled bool
	Enabled    []ThreadID
	Pick       ThreadID
}

// ExploreTraced is Explore that also hands visit the Pick calls of each
// execution, read off the explorer's decision stack: a level is recorded
// from Pick's arguments when it is created, and every replay of it panics
// unless Pick receives the same arguments again, so the stack is the
// execution's Pick trace. The records alias the stack and are valid during
// the call.
func ExploreTraced(cfg ExploreConfig, prog Program, visit func(*Outcome, []PickRecord) bool) (ExploreStats, error) {
	co := newCoordinator(cfg.MaxExecutions, nil)
	e := newExplorer(cfg, co)
	var recs []PickRecord
	e.explore(prog, &shard{}, func(out *Outcome, _ Pos) bool {
		recs = recs[:0]
		for _, c := range e.stack[:e.depth] {
			recs = append(recs, PickRecord{Cur: c.cur, CurEnabled: c.curEnabled, Enabled: c.enabled, Pick: c.enabled[c.next]})
		}
		return visit(out, recs)
	})
	e.finish()
	return co.result()
}
