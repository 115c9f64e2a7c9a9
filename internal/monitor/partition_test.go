package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lineup/internal/history"
)

// partitionReference is partition as it was written before it asked
// Partition once per call: every call asked once to rule out a whole-object
// operation, then every event asked again for its key, each part grown by
// append.
func partitionReference(m *Model, h *history.History, opts Options) ([]*history.History, []string) {
	whole := []*history.History{h}
	if m.Partition == nil || opts.NoPartition {
		return whole, []string{""}
	}
	byKey := make(map[string]*history.History)
	var keys []string
	for _, ev := range h.Events {
		if ev.Kind != history.Call {
			continue
		}
		if _, ok := m.Partition(ev.Op); !ok {
			return whole, []string{""}
		}
	}
	for _, ev := range h.Events {
		key, _ := m.Partition(ev.Op)
		part := byKey[key]
		if part == nil {
			part = &history.History{Stuck: h.Stuck}
			byKey[key] = part
			keys = append(keys, key)
		}
		part.Events = append(part.Events, ev)
	}
	if len(keys) <= 1 {
		return whole, []string{""}
	}
	parts := make([]*history.History, len(keys))
	for i, k := range keys {
		parts[i] = byKey[k]
	}
	return parts, keys
}

// randomSetHistory is a well-formed set history of ops operations on the
// given threads over keys values, the last call last(n) when last is not
// nil; results are arbitrary, since partitioning does not read them, and
// calls left open at the end stay pending.
func randomSetHistory(rng *rand.Rand, threads, ops, keys int, last func(n int) string) *history.History {
	h := &history.History{}
	open := map[int]history.Event{}
	for n := 0; n < ops; {
		t := rng.Intn(threads)
		if call, busy := open[t]; busy {
			call.Kind, call.Result = history.Return, fmt.Sprint(rng.Intn(2) == 0)
			h.Events = append(h.Events, call)
			delete(open, t)
			continue
		}
		op := fmt.Sprintf("%s(%d)", []string{"Add", "Remove", "Contains"}[rng.Intn(3)], rng.Intn(keys))
		if n == ops-1 && last != nil {
			op = last(n)
		}
		open[t] = history.Event{Thread: t, Kind: history.Call, Op: op, Index: n}
		h.Events = append(h.Events, open[t])
		n++
	}
	return h
}

// TestPartitionMatchesReference holds partition to the reference on random
// set histories: the same keys in first-appearance order, the same events in
// each part, and the history's Stuck on every part — including a trace whose
// last call is the whole-object Count() and a trace of one key, which both
// stay one part.
func TestPartitionMatchesReference(t *testing.T) {
	m := SetModel()
	rng := rand.New(rand.NewSource(29))
	count := func(int) string { return "Count()" }
	for i := 0; i < 300; i++ {
		keys, last := 1+rng.Intn(12), (func(int) string)(nil)
		switch i % 5 {
		case 3:
			last = count
		case 4:
			keys = 1
		}
		h := randomSetHistory(rng, 1+rng.Intn(4), rng.Intn(60), keys, last)
		h.Stuck = i%2 == 0
		got, gotKeys := partition(m, h, Options{})
		want, wantKeys := partitionReference(m, h, Options{})
		if !reflect.DeepEqual(gotKeys, wantKeys) || len(got) != len(want) {
			t.Fatalf("history %d: keys %q, want %q", i, gotKeys, wantKeys)
		}
		for p := range got {
			if got[p].Stuck != h.Stuck || !reflect.DeepEqual(got[p].Events, want[p].Events) {
				t.Fatalf("history %d, part %q: %+v, want %+v", i, gotKeys[p], got[p], want[p])
			}
		}
		if (last != nil || keys == 1) && len(h.Events) > 0 && (len(got) != 1 || got[0] != h) {
			t.Fatalf("history %d: %d parts, want the history whole", i, len(got))
		}
	}
}
