package sched_test

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// fullKey identifies an outcome by its complete observable behavior: every
// scheduler event plus the stuck flag. Two executions with equal keys took
// observationally identical schedules.
func fullKey(o *sched.Outcome) string {
	s := fmt.Sprint(o.Events)
	if o.Stuck {
		s += "#stuck"
	}
	return s
}

// multiset counts outcome keys.
type multiset map[string]int

func (m multiset) equal(n multiset) bool {
	if len(m) != len(n) {
		return false
	}
	for k, v := range m {
		if n[k] != v {
			return false
		}
	}
	return true
}

// exploreSeq collects the sequential explorer's outcome multiset and stats.
func exploreSeq(t *testing.T, cfg sched.ExploreConfig, prog sched.Program) (multiset, sched.ExploreStats, error) {
	t.Helper()
	ms := multiset{}
	stats, err := sched.Explore(cfg, prog, func(o *sched.Outcome) bool {
		ms[fullKey(o)]++
		return true
	})
	return ms, stats, err
}

// recruitEarly makes the explorations of one test start their helpers at the
// first execution: the programs here have a few thousand schedules at most,
// and most would otherwise end before anything was shared.
func recruitEarly(t *testing.T) { t.Cleanup(sched.SetRecruitAfter(1)) }

// explorePar collects the parallel explorer's outcome multiset and stats.
func explorePar(t *testing.T, cfg sched.ExploreConfig, workers int, newProg func() sched.Program) (multiset, sched.ExploreStats, error) {
	t.Helper()
	var mu sync.Mutex
	ms := multiset{}
	stats, err := sched.ExploreParallel(cfg, workers, newProg, func(o *sched.Outcome, p sched.Pos) bool {
		mu.Lock()
		ms[fullKey(o)]++
		mu.Unlock()
		return true
	})
	return ms, stats, err
}

// TestParallelEquivalenceMultiset is the core equivalence suite: across
// worker counts, preemption bounds, and the number of executions the lone DFS
// runs before it recruits, the parallel explorer must visit the exact same
// multiset of outcomes as the sequential one and merge identical statistics.
func TestParallelEquivalenceMultiset(t *testing.T) {
	sched.RequireNoLeaks(t)
	// Bounds per program are chosen so every schedule space stays small
	// enough to enumerate exhaustively (a few thousand executions); the
	// 3-thread subjects skip Unbounded, whose spaces run into the tens of
	// thousands per worker/depth combination.
	progs := []struct {
		name   string
		mk     func() sched.Program
		cfg    sched.Config
		bounds []int
	}{
		{"2x2", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
		}, sched.Config{}, []int{0, 1, 2, sched.Unbounded}},
		{"3x1", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(1, "a"), opThread(1, "b"), opThread(1, "c")}}
		}, sched.Config{}, []int{0, 1, 2}},
		{"3x2", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b"), opThread(2, "c")}}
		}, sched.Config{}, []int{0, 1}},
		{"uneven", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(1, "a"), opThread(3, "b")}}
		}, sched.Config{}, []int{0, 1, 2, sched.Unbounded}},
		{"serial-2x3", func() sched.Program {
			return sched.Program{Threads: []func(*sched.Thread){opThread(3, "a"), opThread(3, "b")}}
		}, sched.Config{Serial: true}, []int{sched.Unbounded}},
	}
	workers := []int{1, 2, 4, 8}
	for _, p := range progs {
		for _, bound := range p.bounds {
			cfg := sched.ExploreConfig{Config: p.cfg, PreemptionBound: bound}
			wantMS, wantStats, wantErr := exploreSeq(t, cfg, p.mk())
			if wantErr != nil {
				t.Fatalf("%s bound=%d: sequential explore: %v", p.name, bound, wantErr)
			}
			for _, w := range workers {
				for _, after := range []int{1, 5, 64} {
					restore := sched.SetRecruitAfter(after)
					gotMS, gotStats, gotErr := explorePar(t, cfg, w, p.mk)
					restore()
					tag := fmt.Sprintf("%s bound=%d workers=%d recruit-after=%d", p.name, bound, w, after)
					if gotErr != nil {
						t.Fatalf("%s: parallel explore: %v", tag, gotErr)
					}
					if !wantMS.equal(gotMS) {
						t.Fatalf("%s: outcome multisets differ: sequential %d distinct / parallel %d distinct",
							tag, len(wantMS), len(gotMS))
					}
					if gotStats.Executions != wantStats.Executions || gotStats.Decisions != wantStats.Decisions || gotStats.Truncated != wantStats.Truncated {
						t.Fatalf("%s: stats differ: sequential %+v parallel %+v", tag, wantStats, gotStats)
					}
				}
			}
		}
	}
}

// TestParallelPositionsAreSequentialOrder checks the determinism backbone:
// sorting the parallel explorer's visited outcomes by Pos reproduces the
// sequential visit order exactly.
func TestParallelPositionsAreSequentialOrder(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b"), opThread(1, "c")}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2}
	var seq []string
	if _, err := sched.Explore(cfg, mk(), func(o *sched.Outcome) bool {
		seq = append(seq, fullKey(o))
		return true
	}); err != nil {
		t.Fatalf("sequential explore: %v", err)
	}
	type visited struct {
		key string
		pos sched.Pos
	}
	var mu sync.Mutex
	var got []visited
	if _, err := sched.ExploreParallel(cfg, 4, mk, func(o *sched.Outcome, p sched.Pos) bool {
		mu.Lock()
		got = append(got, visited{fullKey(o), append(sched.Pos(nil), p...)})
		mu.Unlock()
		return true
	}); err != nil {
		t.Fatalf("parallel explore: %v", err)
	}
	if len(got) != len(seq) {
		t.Fatalf("parallel visited %d executions, sequential %d", len(got), len(seq))
	}
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[j].pos.Before(got[i].pos) {
				got[i], got[j] = got[j], got[i]
			}
		}
	}
	for i := range got {
		if got[i].key != seq[i] {
			t.Fatalf("position-sorted parallel outcome %d differs from sequential visit order", i)
		}
	}
}

// TestParallelBudgetTruncation checks that MaxExecutions caps the parallel
// explorer exactly like the sequential one: same ErrBudget, same Truncated
// flag, and exactly the same number of executions run.
func TestParallelBudgetTruncation(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	full, _, err := exploreSeq(t, sched.ExploreConfig{PreemptionBound: sched.Unbounded}, mk())
	if err != nil {
		t.Fatalf("sequential explore: %v", err)
	}
	total := 0
	for _, n := range full {
		total += n
	}
	if total < 20 {
		t.Fatalf("schedule space too small for a truncation test: %d", total)
	}
	for _, max := range []int{1, 7, total / 2, total - 1} {
		cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, MaxExecutions: max}
		_, seqStats, seqErr := exploreSeq(t, cfg, mk())
		for _, w := range []int{1, 4} {
			_, parStats, parErr := explorePar(t, cfg, w, mk)
			if (seqErr == sched.ErrBudget) != (parErr == sched.ErrBudget) {
				t.Fatalf("max=%d workers=%d: budget errors disagree: sequential %v parallel %v", max, w, seqErr, parErr)
			}
			if parStats.Truncated != seqStats.Truncated {
				t.Fatalf("max=%d workers=%d: Truncated disagrees: sequential %v parallel %v", max, w, seqStats.Truncated, parStats.Truncated)
			}
			if parStats.Executions != seqStats.Executions {
				t.Fatalf("max=%d workers=%d: executions disagree: sequential %d parallel %d", max, w, seqStats.Executions, parStats.Executions)
			}
		}
	}
	// A budget at least as large as the space must not truncate.
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded, MaxExecutions: total}
	_, parStats, parErr := explorePar(t, cfg, 4, mk)
	if parErr != nil || parStats.Truncated {
		t.Fatalf("budget == space must not truncate: err=%v stats=%+v", parErr, parStats)
	}
}

// TestParallelEarlyStop checks early cancellation: when a visit returns
// false, the parallel explorer returns a nil error and the statistics of the
// sequential run that stops at the same execution — Executions, Decisions and
// Pruned count what lies at or before the stop, not what happened to be in
// flight — for every worker count, wherever the stop lies and wherever the
// timing-driven splits landed.
func TestParallelEarlyStop(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			mixedThread("a", 0, 2), mixedThread("b", 1, 2), mixedThread("c", 2, 1),
		}}
	}
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		cfg := sched.ExploreConfig{PreemptionBound: 2, Reduction: red}
		// Collect the sequential visit order, then stop on the key the
		// sequential explorer reaches at a few points well inside the space —
		// a stopping condition any order of exploration can hit. Every later
		// execution with the same key stops too; the first one must win.
		var seq []string
		if _, err := sched.Explore(cfg, mk(), func(o *sched.Outcome) bool {
			seq = append(seq, fullKey(o))
			return true
		}); err != nil {
			t.Fatalf("sequential explore: %v", err)
		}
		splits := int64(0)
		for _, at := range []int{0, 1, len(seq) / 7, len(seq) / 2, len(seq) - 1} {
			stopKey := seq[at]
			visit := func(o *sched.Outcome, _ sched.Pos) bool { return fullKey(o) != stopKey }
			seqStats, seqErr := sched.ExploreUnit(cfg, mk(), sched.WorkUnit{}, visit)
			if seqErr != nil || seqStats.Executions > at+1 {
				t.Fatalf("sequential run: stats=%+v err=%v, stop key first seen at execution %d", seqStats, seqErr, at+1)
			}
			for _, w := range []int{2, 4, 8} {
				for rep := 0; rep < 10; rep++ {
					counted := cfg
					counted.Telemetry = telemetry.New()
					parStats, parErr := sched.ExploreParallel(counted, w, mk, visit)
					splits = max(splits, counted.Telemetry.Get(telemetry.ShardSplits))
					if parErr != nil {
						t.Fatalf("reduction=%v stop=%d workers=%d: parallel explore: %v", red, at, w, parErr)
					}
					if parStats != seqStats {
						t.Fatalf("reduction=%v stop=%d workers=%d: stats %+v, sequential %+v", red, at, w, parStats, seqStats)
					}
				}
			}
		}
		if splits == 0 {
			t.Fatalf("reduction=%v: no exploration was ever split; the comparison is vacuous", red)
		}
		t.Logf("reduction=%v: %d executions, up to %d splits in one run", red, len(seq), splits)
	}
}

// TestParallelErrorDeterministic checks that a failing execution (a panic in
// program code) surfaces as the same error regardless of worker count: the
// sequentially-first failure wins — including when it is the very first
// execution, whose position is the empty path.
func TestParallelErrorDeterministic(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	// Thread b panics when its point runs before thread a finished: many
	// schedules fail, and the parallel explorer must report the failure the
	// sequential DFS would hit first.
	overtake := func() sched.Program {
		var aDone bool
		return sched.Program{
			Setup: func(*sched.Thread) { aDone = false },
			Threads: []func(*sched.Thread){
				func(th *sched.Thread) {
					th.OpStart("a")
					th.Point()
					aDone = true
					th.OpEnd("a", "ok")
				},
				func(th *sched.Thread) {
					th.OpStart("b")
					th.Point()
					if !aDone {
						panic("b overtook a")
					}
					th.OpEnd("b", "ok")
				},
			},
		}
	}
	always := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){
			func(th *sched.Thread) {
				th.OpStart("a")
				panic("a always panics")
			},
			opThread(1, "b"),
		}}
	}
	// Panic errors embed a goroutine stack dump; the identifying part is the
	// first line ("thread N panicked: ...").
	firstLine := func(err error) string {
		s := err.Error()
		for i := 0; i < len(s); i++ {
			if s[i] == '\n' {
				return s[:i]
			}
		}
		return s
	}
	cfg := sched.ExploreConfig{PreemptionBound: sched.Unbounded}
	for name, mk := range map[string]func() sched.Program{"overtake": overtake, "first-execution": always} {
		_, seqErr := sched.Explore(cfg, mk(), func(o *sched.Outcome) bool { return true })
		if seqErr == nil {
			t.Fatalf("%s: sequential explorer found no failing execution", name)
		}
		for _, w := range []int{1, 2, 4, 8} {
			_, parErr := sched.ExploreParallel(cfg, w, mk, func(o *sched.Outcome, p sched.Pos) bool { return true })
			if parErr == nil {
				t.Fatalf("%s workers=%d: parallel explorer found no failing execution", name, w)
			}
			if firstLine(parErr) != firstLine(seqErr) {
				t.Fatalf("%s workers=%d: error differs from sequential:\n got %v\nwant %v", name, w, firstLine(parErr), firstLine(seqErr))
			}
		}
	}
}

// TestParallelProgress checks the shard counters: after an exploration shared
// among workers every shard created is retired, one was created per split
// beyond the first, and the executions counted are the statistics'.
func TestParallelProgress(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	col := telemetry.New()
	cfg := sched.ExploreConfig{PreemptionBound: 2, Telemetry: col}
	stats, err := sched.ExploreParallel(cfg, 4, mk, func(o *sched.Outcome, p sched.Pos) bool { return true })
	if err != nil {
		t.Fatalf("parallel explore: %v", err)
	}
	shards, done, splits := col.Get(telemetry.Shards), col.Get(telemetry.ShardsDone), col.Get(telemetry.ShardSplits)
	if shards == 0 || done != shards || splits != shards-1 {
		t.Fatalf("%d shards, %d done, %d splits: want every shard done and one split per shard after the first", shards, done, splits)
	}
	if got := col.Get(telemetry.ExecutionsStarted); got != int64(stats.Executions) {
		t.Fatalf("counted %d executions, stats %d", got, stats.Executions)
	}
}

// TestParallelPropertyRandomPrograms is the randomized property suite:
// random thread counts and op matrices, random bounds, random worker counts
// and recruiting points — the parallel explorer must agree with the sequential
// one on executions, truncation, and (when the space is fully explored) the
// full outcome multiset and decision count.
func TestParallelPropertyRandomPrograms(t *testing.T) {
	sched.RequireNoLeaks(t)
	rng := rand.New(rand.NewSource(0x11e4))
	const budget = 2000
	for iter := 0; iter < 18; iter++ {
		nThreads := 1 + rng.Intn(3)
		mkOps := make([]int, nThreads)
		for i := range mkOps {
			mkOps[i] = 1 + rng.Intn(3)
		}
		mk := func() sched.Program {
			threads := make([]func(*sched.Thread), nThreads)
			for i := range threads {
				threads[i] = opThread(mkOps[i], fmt.Sprintf("t%d", i))
			}
			return sched.Program{Threads: threads}
		}
		bound := []int{0, 1, 2, sched.Unbounded}[rng.Intn(4)]
		cfg := sched.ExploreConfig{PreemptionBound: bound, MaxExecutions: budget}
		workers := 1 + rng.Intn(8)
		after := 1 + rng.Intn(3)
		tag := fmt.Sprintf("iter=%d threads=%v bound=%d workers=%d recruit-after=%d", iter, mkOps, bound, workers, after)

		seqMS, seqStats, seqErr := exploreSeq(t, cfg, mk())
		restore := sched.SetRecruitAfter(after)
		parMS, parStats, parErr := explorePar(t, cfg, workers, mk)
		restore()
		if (seqErr == sched.ErrBudget) != (parErr == sched.ErrBudget) {
			t.Fatalf("%s: budget errors disagree: sequential %v parallel %v", tag, seqErr, parErr)
		}
		if seqErr == nil && parErr != nil {
			t.Fatalf("%s: parallel error %v, sequential none", tag, parErr)
		}
		if parStats.Truncated != seqStats.Truncated {
			t.Fatalf("%s: Truncated disagrees: sequential %v parallel %v", tag, seqStats.Truncated, parStats.Truncated)
		}
		if parStats.Executions != seqStats.Executions {
			t.Fatalf("%s: executions disagree: sequential %d parallel %d", tag, seqStats.Executions, parStats.Executions)
		}
		if !seqStats.Truncated {
			if !seqMS.equal(parMS) {
				t.Fatalf("%s: outcome multisets differ (%d vs %d distinct)", tag, len(seqMS), len(parMS))
			}
			if parStats.Decisions != seqStats.Decisions {
				t.Fatalf("%s: decisions disagree: sequential %d parallel %d", tag, seqStats.Decisions, parStats.Decisions)
			}
		}
	}
}

// TestParallelProgressSealedAfterReturn checks that ExploreParallel has
// counted everything by the time it returns: every shard it created is
// retired, and nothing is counted afterwards — a late shard retirement would
// leave the progress line and the trace short of the totals, or move them
// after the caller read them. The early-cancel variant is the hard case:
// workers are still retiring abandoned shards while the coordinator unwinds;
// a budget kill leaves shards queued that no worker retires.
func TestParallelProgressSealedAfterReturn(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	for _, tc := range []struct {
		name   string
		cancel bool
		budget int
	}{
		{"full", false, 0},
		{"cancel", true, 0},
		{"budget", false, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := telemetry.New()
			var visited atomic.Int32
			visit := func(o *sched.Outcome, p sched.Pos) bool {
				return !tc.cancel || visited.Add(1) < 5
			}
			cfg := sched.ExploreConfig{PreemptionBound: 2, MaxExecutions: tc.budget, Telemetry: col}
			stats, err := sched.ExploreParallel(cfg, 4, mk, visit)
			if (err == sched.ErrBudget) != (tc.budget > 0) || (err != nil && err != sched.ErrBudget) {
				t.Fatalf("parallel explore: %v", err)
			}
			final := col.Snapshot()
			if final["shards"] == 0 || final["shards_done"] != final["shards"] {
				t.Errorf("at return %d of %d shards are done", final["shards_done"], final["shards"])
			}
			// Every execution started is counted; after a cancellation the
			// statistics count only those at or before the stop.
			if started := final["executions_started"]; started < int64(stats.Executions) || (!tc.cancel && tc.budget == 0 && started != int64(stats.Executions)) {
				t.Errorf("counted %d executions at return, returned stats %d", started, stats.Executions)
			}
			// A count still in flight at return would show here; give a buggy
			// implementation a beat to make it.
			time.Sleep(50 * time.Millisecond)
			if later := col.Snapshot(); !maps.Equal(later, final) {
				t.Errorf("counted after return: %v, at return %v", later, final)
			}
		})
	}
}

// TestParallelPanicReachesCaller checks that a panic on whichever worker
// meets it — a helper's goroutine included — is re-raised on the goroutine
// that called ExploreParallel, once every worker has stopped, as the lone DFS
// raises it.
func TestParallelPanicReachesCaller(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b"), opThread(1, "c")}}
	}
	cfg := sched.ExploreConfig{PreemptionBound: 2}
	var seq []string
	if _, err := sched.Explore(cfg, mk(), func(o *sched.Outcome) bool {
		seq = append(seq, fullKey(o))
		return true
	}); err != nil {
		t.Fatalf("sequential explore: %v", err)
	}
	bad := seq[len(seq)*3/4]
	for rep := 0; rep < 20; rep++ {
		func() {
			defer func() {
				if r := recover(); r != "visitor exploded" {
					t.Fatalf("rep %d: recovered %v, want the visitor's panic", rep, r)
				}
			}()
			_, err := sched.ExploreParallel(cfg, 4, mk, func(o *sched.Outcome, _ sched.Pos) bool {
				if fullKey(o) == bad {
					panic("visitor exploded")
				}
				return true
			})
			t.Fatalf("rep %d: ExploreParallel returned (err=%v) although a visit panicked", rep, err)
		}()
	}
}

// TestUnwatchedParallelExploration is the race gate of the scheduler's lock:
// without a watchdog the scheduler takes none, and the coroutine switches
// alone order what the subject, the scheduler and the explorer touch. Fig. 9
// with an observer (wait sets, stuck executions) and Fig. 1 (a vsync mutex)
// are explored on four workers under sleep sets with no watchdog, splitting
// from the first execution on; `make sched-smoke` runs this under -race. Each
// exploration meets exactly the sequential run's distinct histories.
func TestUnwatchedParallelExploration(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	fig1, fig9 := causeCase(t, bench.CauseB), causeCase(t, bench.CauseA)
	isSet, ok := fig9.Subject.FindOp("IsSet()")
	if !ok {
		t.Fatal("ManualResetEvent(Pre) has no IsSet()")
	}
	for _, tc := range []struct {
		name  string
		bound int
		prog  func() sched.Program
	}{
		{"fig9-observer", 3, func() sched.Program {
			return subjectProgram(fig9.Subject, append(append([][]core.Op(nil), fig9.Test.Rows...), []core.Op{isSet}))
		}},
		{"fig1", fig1.Bound, func() sched.Program { return subjectProgram(fig1.Subject, fig1.Test.Rows) }},
	} {
		cfg := sched.ExploreConfig{PreemptionBound: tc.bound, Reduction: sched.ReductionSleep}
		want, _, err := exploreSeq(t, cfg, tc.prog())
		if err != nil {
			t.Fatalf("%s: sequential explore: %v", tc.name, err)
		}
		got, stats, err := explorePar(t, cfg, 4, tc.prog)
		if err != nil {
			t.Fatalf("%s: parallel explore: %v", tc.name, err)
		}
		if !maps.EqualFunc(want, got, func(int, int) bool { return true }) {
			t.Errorf("%s: %d distinct histories sequentially, %d on four workers, or other ones", tc.name, len(want), len(got))
		}
		t.Logf("%s: %d executions, %d distinct histories", tc.name, stats.Executions, len(got))
	}
}
