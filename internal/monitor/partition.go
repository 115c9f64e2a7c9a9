package monitor

import "lineup/internal/history"

// partition splits h into P-compositional parts using the model's Partition
// function: every operation maps to the key of the independent sub-object it
// touches, events are grouped by key with their relative order preserved,
// and each part is checked against a fresh initial state. The split degrades
// to a single part when the model is monolithic, when partitioning is
// disabled, when any operation touches the whole object, or when all
// operations share one key. The returned key slice is aligned with the
// parts ("" for the unsplit case) and sorted by first appearance.
//
// Partition is asked once per call; a return joins the part of its thread's
// open call, which h, being well-formed, has. The parts are carved from one
// backing array, each sized by a first pass.
func partition(m *Model, h *history.History, opts Options) ([]*history.History, []string) {
	whole := []*history.History{h}
	if m.Partition == nil || opts.NoPartition {
		return whole, []string{""}
	}
	number := make(map[string]int32) // key -> part number
	var keys []string
	var sizes []int
	of := make([]int32, len(h.Events)) // each event's part number
	open := make(map[int]int32)        // thread -> part number of its open call
	for i, ev := range h.Events {
		if ev.Kind == history.Call {
			key, ok := m.Partition(ev.Op)
			if !ok {
				return whole, []string{""} // a whole-object op forbids splitting
			}
			p, seen := number[key]
			if !seen {
				p = int32(len(keys))
				number[key] = p
				keys, sizes = append(keys, key), append(sizes, 0)
			}
			open[ev.Thread] = p
		}
		of[i] = open[ev.Thread]
		sizes[of[i]]++
	}
	if len(keys) <= 1 {
		return whole, []string{""}
	}
	backing := make([]history.Event, len(h.Events))
	hs := make([]history.History, len(keys))
	parts := make([]*history.History, len(keys))
	for p, n := range sizes {
		hs[p] = history.History{Events: backing[:0:n], Stuck: h.Stuck}
		backing, parts[p] = backing[n:], &hs[p]
	}
	for i, ev := range h.Events {
		parts[of[i]].Events = append(parts[of[i]].Events, ev)
	}
	return parts, keys
}
