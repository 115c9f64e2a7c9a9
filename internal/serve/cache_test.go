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

// newWithoutCache is New for a server whose cache is nil: every window is
// decided by the search, the reference the cached server's verdicts must
// equal. The workers read the field only after an ingest hands them work.
func newWithoutCache(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.cache = nil
	return s
}

// ingestWindows sends one window per (partition, operation, result) triple:
// a call and its return, on thread 0 for partition "a" and 1 otherwise.
func ingestWindows(t *testing.T, c *IngestConn, windows [][3]string) {
	t.Helper()
	for _, w := range windows {
		k, op, res := w[0], w[1], w[2]
		th := 0
		if k != "a" {
			th = 1
		}
		evs := []obsfile.TraceEvent{{T: th, K: "call", Op: op, P: k}, {T: th, K: "ret", Op: op, Res: res}}
		if _, err := c.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowCacheBounded pushes more distinct windows than the cache holds
// through a server whose second partition repeats the first's windows (so
// entries are also read), and then fails the second partition. The live map
// never holds more than maxCacheEntries, and every verdict is the one a server
// without the cache gives.
func TestWindowCacheBounded(t *testing.T) {
	var windows [][3]string
	for i := 0; i < maxCacheEntries+1000; i++ {
		op := fmt.Sprintf("Write(%d)", i)
		windows = append(windows, [3]string{"a", op, "ok"}, [3]string{"b", op, "ok"})
	}
	windows = append(windows, [3]string{"b", "Read()", "0"})
	run := func(s *Server) *Summary {
		c := s.NewConn()
		ingestWindows(t, c, windows)
		c.Release()
		sum, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	cfg := Config{Model: monitor.RegisterModel(), Workers: 1, WindowOps: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := run(s)
	if n := len(s.cache.m); n > maxCacheEntries {
		t.Errorf("the window cache holds %d entries, over its bound %d", n, maxCacheEntries)
	}
	if sum.Stats.CacheEntries <= maxCacheEntries || sum.Stats.CacheHits == 0 {
		t.Errorf("%d entries stored and %d hits: the run did not exercise the bound", sum.Stats.CacheEntries, sum.Stats.CacheHits)
	}
	plain := run(newWithoutCache(t, cfg))
	if !reflect.DeepEqual(sum.Verdicts, plain.Verdicts) || sum.Linearizable || plain.Linearizable {
		t.Errorf("verdicts with the cache %+v, without %+v; want equal, b failed", sum.Verdicts, plain.Verdicts)
	}
}

// TestWindowCacheBypass: on windows that never repeat, the cache stops being
// consulted after bypassAfter misses and stores at most bypassAfter + one
// probe per bypassAfter windows; once the windows repeat, a probe hits and
// turns it back on. Every verdict is the one a server without the cache
// gives, a failing partition's included.
func TestWindowCacheBypass(t *testing.T) {
	const fresh, repeated = 2000, 256
	var windows [][3]string
	for i := 0; i < fresh; i++ {
		windows = append(windows, [3]string{"a", fmt.Sprintf("Write(%d)", i), "ok"})
	}
	// From the register's value 5 on, Write(5) is the same window every time.
	for i := 0; i < repeated; i++ {
		windows = append(windows, [3]string{"a", "Write(5)", "ok"})
	}
	bad := [3]string{"b", "Read()", "7"}
	cfg := Config{Model: monitor.RegisterModel(), Workers: 1, WindowOps: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewConn()
	ingestWindows(t, c, windows[:fresh])
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheEntries > bypassAfter+fresh/bypassAfter {
		t.Errorf("fresh windows: %d hits, %d entries stored; want 0 and at most %d", st.CacheHits, st.CacheEntries, bypassAfter+fresh/bypassAfter)
	}
	if want := int64(fresh - bypassAfter - fresh/bypassAfter); st.CacheSkipped < want {
		t.Errorf("fresh windows: %d decided without a lookup, want at least %d", st.CacheSkipped, want)
	}
	ingestWindows(t, c, append(windows[fresh:], bad))
	c.Release()
	sum, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The first probe of the repeated windows stores their entry, the
	// second hits it, and every later window is a lookup that hits (b's
	// window, last, is one miss).
	if min := int64(repeated - 2*bypassAfter - 1); sum.Stats.CacheHits < min || s.cache.missRun.Load() != 1 {
		t.Errorf("repeated windows: %d hits (want at least %d), %d misses in a row at the end (want 1)", sum.Stats.CacheHits, min, s.cache.missRun.Load())
	}
	if got := sum.Stats.CacheHits + sum.Stats.CacheEntries + sum.Stats.CacheSkipped; got != sum.Stats.WindowFlushes {
		t.Errorf("hits + entries + skipped = %d, want every window once (%d)", got, sum.Stats.WindowFlushes)
	}
	uc := newWithoutCache(t, cfg)
	conn := uc.NewConn()
	ingestWindows(t, conn, append(windows, bad))
	conn.Release()
	plain, err := uc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Verdicts, plain.Verdicts) || sum.Linearizable || plain.Linearizable {
		t.Errorf("verdicts with the cache %+v, without %+v; want equal, b failed", sum.Verdicts, plain.Verdicts)
	}
}
