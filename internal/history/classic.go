package history

// WitnessClassic implements the original linearizability check of
// Definition 1 for a (possibly stuck) history h: h may be extended by
// appending return events for any subset of its pending operations (with
// results of the witness's choosing), all remaining pending calls are
// dropped, and the result must have a serial witness in the specification.
// Witness candidates are drawn from the prefix closure of the recorded
// serial histories (the construction of Theorem 6: prefixes of full
// histories and of the completed parts of stuck histories).
//
// This is exposed to demonstrate Section 2.2.2: the classic definition
// accepts erroneous blocking (e.g. Counter2's leaked lock) that the
// generalized Definition 3 rejects.
func (sp *Spec) WitnessClassic(h *History) (*SerialHistory, bool) {
	ops := h.Ops()
	completedByThread := make(map[int][]Op)
	pendingByThread := make(map[int]Op)
	for _, op := range ops {
		if op.Complete {
			completedByThread[op.Thread] = append(completedByThread[op.Thread], op)
		} else {
			pendingByThread[op.Thread] = op
		}
	}
	for _, stuck := range []bool{false, true} {
		for _, g := range sp.groups {
			if g.stuck != stuck {
				continue
			}
			for _, cand := range g.hist {
				if s, ok := classicMatch(cand, h, completedByThread, pendingByThread); ok {
					return s, ok
				}
			}
		}
	}
	return nil, false
}

// classicMatch checks whether some prefix of cand's completed operations
// witnesses h under the classic definition.
func classicMatch(cand *SerialHistory, h *History, completedByThread map[int][]Op, pendingByThread map[int]Op) (*SerialHistory, bool) {
	// The witness must contain every completed operation of h; try prefixes
	// long enough to hold them all.
	nCompleted := 0
	for _, v := range completedByThread {
		nCompleted += len(v)
	}
	for k := nCompleted; k <= len(cand.Ops); k++ {
		prefix := cand.Ops[:k]
		if matchPrefix(prefix, h, completedByThread, pendingByThread) {
			return &SerialHistory{Ops: append([]SerialOp(nil), prefix...)}, true
		}
	}
	return nil, false
}

// matchPrefix checks the two witness conditions against one candidate
// serial op sequence: per-thread subhistory equality (completed ops exactly,
// optionally followed by the thread's pending op, matched by name with a
// free result) and order preservation <H ⊆ <S.
func matchPrefix(prefix []SerialOp, h *History, completedByThread map[int][]Op, pendingByThread map[int]Op) bool {
	perThreadSeen := make(map[int]int)
	// For order checking we map each op of the prefix back to the matching
	// Op of h (carrying its call/return positions).
	mapped := make([]Op, len(prefix))
	usedPending := make(map[int]bool)
	for i, so := range prefix {
		seen := perThreadSeen[so.Thread]
		comp := completedByThread[so.Thread]
		switch {
		case seen < len(comp):
			c := comp[seen]
			if c.Name != so.Name || c.Result != so.Result {
				return false
			}
			mapped[i] = c
		case seen == len(comp):
			p, ok := pendingByThread[so.Thread]
			if !ok || usedPending[so.Thread] || p.Name != so.Name {
				return false
			}
			// The pending op completes with whatever result the witness
			// assigns (we append the matching return to H).
			usedPending[so.Thread] = true
			mapped[i] = p
		default:
			return false
		}
		perThreadSeen[so.Thread] = seen + 1
	}
	// Every completed op of h must be present.
	for t, comp := range completedByThread {
		if perThreadSeen[t] < len(comp) {
			return false
		}
	}
	// Order condition: <H ⊆ <S over the mapped ops.
	for i := range mapped {
		for j := range mapped {
			if i == j {
				continue
			}
			if Precedes(mapped[i], mapped[j]) && i >= j {
				return false
			}
		}
	}
	return true
}
