package serve

import (
	"fmt"
	"reflect"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
)

// TestWindowCacheKeysNeverCollide: frontiers whose comma-joined forms agree
// (["a","a,a"] and ["a,a","a"]), and windows that differ in one value, each get
// an entry of their own.
func TestWindowCacheKeysNeverCollide(t *testing.T) {
	window := func(v string) []history.Event {
		return []history.Event{
			{Kind: history.Call, Op: "Enqueue(" + v + ")", Index: 4},
			{Kind: history.Return, Result: "ok", Index: 4},
			{Kind: history.Call, Op: "TryDequeue()", Index: 9},
			{Kind: history.Return, Result: v, Index: 9},
		}
	}
	cases := []struct {
		states []string
		events []history.Event
	}{
		{[]string{"a", "a,a"}, window("a")},
		{[]string{"a,a", "a"}, window("a")},
		{[]string{"a", "a,a"}, window("a,a")},
		{[]string{"a", "a,a"}, window("b")},
		{[]string{"a", "aa"}, window("a")},
		{[]string{"aa", "a"}, window("a")},
		{[]string{""}, window("a")},
		{nil, window("a")},
	}
	c := newWindowCache()
	for i, k := range cases {
		key, en := c.lookup(k.states, k.events)
		if en != nil {
			t.Fatalf("case %d (%q) hits the entry of an earlier case", i, k.states)
		}
		c.put(key, true, []string{fmt.Sprint(i)})
	}
	for i, k := range cases {
		if _, en := c.lookup(k.states, k.events); en == nil || en.states[0] != fmt.Sprint(i) {
			t.Fatalf("case %d (%q) does not find its own entry: %+v", i, k.states, en)
		}
	}
}

// TestWindowCacheBounded pushes more distinct windows than the cache holds
// through a server whose second partition repeats the first's windows (so
// entries are also read), and then fails the second partition. The live map
// never holds more than maxCacheEntries, and every verdict is the one a server
// without the cache gives.
func TestWindowCacheBounded(t *testing.T) {
	run := func(noDedup bool) (*Server, *Summary) {
		s, err := New(Config{Model: monitor.RegisterModel(), Workers: 1, WindowOps: 1, NoDedup: noDedup})
		if err != nil {
			t.Fatal(err)
		}
		c := s.NewConn()
		var evs []obsfile.TraceEvent
		send := func(k, op, res string) {
			evs = append(evs[:0], obsfile.TraceEvent{K: "call", Op: op, P: k}, obsfile.TraceEvent{K: "ret", Op: op, Res: res})
			if k == "b" {
				evs[0].T, evs[1].T = 1, 1
			}
			if _, err := c.IngestBatch(evs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < maxCacheEntries+1000; i++ {
			op := fmt.Sprintf("Write(%d)", i)
			send("a", op, "ok")
			send("b", op, "ok")
		}
		send("b", "Read()", "0")
		c.Release()
		sum, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return s, sum
	}
	s, sum := run(false)
	if n := len(s.cache.m); n > maxCacheEntries {
		t.Errorf("the window cache holds %d entries, over its bound %d", n, maxCacheEntries)
	}
	if sum.Stats.CacheEntries <= maxCacheEntries || sum.Stats.CacheHits == 0 {
		t.Errorf("%d entries stored and %d hits: the run did not exercise the bound", sum.Stats.CacheEntries, sum.Stats.CacheHits)
	}
	_, plain := run(true)
	if !reflect.DeepEqual(sum.Verdicts, plain.Verdicts) || sum.Linearizable || plain.Linearizable {
		t.Errorf("verdicts with the cache %+v, without %+v; want equal, b failed", sum.Verdicts, plain.Verdicts)
	}
}
