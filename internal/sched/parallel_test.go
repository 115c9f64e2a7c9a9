package sched_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lineup/internal/sched"
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
func explorePar(t *testing.T, cfg sched.ExploreConfig, pcfg sched.ParallelConfig, newProg func() sched.Program) (multiset, sched.ExploreStats, error) {
	t.Helper()
	var mu sync.Mutex
	ms := multiset{}
	stats, err := sched.ExploreParallel(cfg, pcfg, newProg, func(o *sched.Outcome, p sched.Pos) bool {
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
					gotMS, gotStats, gotErr := explorePar(t, cfg, sched.ParallelConfig{Workers: w}, p.mk)
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
	if _, err := sched.ExploreParallel(cfg, sched.ParallelConfig{Workers: 4}, mk, func(o *sched.Outcome, p sched.Pos) bool {
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
			_, parStats, parErr := explorePar(t, cfg, sched.ParallelConfig{Workers: w}, mk)
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
	_, parStats, parErr := explorePar(t, cfg, sched.ParallelConfig{Workers: 4}, mk)
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
		splits := 0
		pcfg := sched.ParallelConfig{Progress: func(p sched.ShardProgress) { splits = max(splits, p.Splits) }}
		for _, at := range []int{0, 1, len(seq) / 7, len(seq) / 2, len(seq) - 1} {
			stopKey := seq[at]
			visit := func(o *sched.Outcome, _ sched.Pos) bool { return fullKey(o) != stopKey }
			seqStats, seqErr := sched.ExploreUnit(cfg, mk(), sched.WorkUnit{}, visit)
			if seqErr != nil || seqStats.Executions > at+1 {
				t.Fatalf("sequential run: stats=%+v err=%v, stop key first seen at execution %d", seqStats, seqErr, at+1)
			}
			for _, w := range []int{2, 4, 8} {
				for rep := 0; rep < 10; rep++ {
					pcfg.Workers = w
					parStats, parErr := sched.ExploreParallel(cfg, pcfg, mk, visit)
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
					th.Point(sched.PointAtomic)
					aDone = true
					th.OpEnd("a", "ok")
				},
				func(th *sched.Thread) {
					th.OpStart("b")
					th.Point(sched.PointAtomic)
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
			_, parErr := sched.ExploreParallel(cfg, sched.ParallelConfig{Workers: w}, mk, func(o *sched.Outcome, p sched.Pos) bool { return true })
			if parErr == nil {
				t.Fatalf("%s workers=%d: parallel explorer found no failing execution", name, w)
			}
			if firstLine(parErr) != firstLine(seqErr) {
				t.Fatalf("%s workers=%d: error differs from sequential:\n got %v\nwant %v", name, w, firstLine(parErr), firstLine(seqErr))
			}
		}
	}
}

// TestParallelProgress checks the shard progress counters: monotone
// executions, and a final snapshot accounting for every shard.
func TestParallelProgress(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	var mu sync.Mutex
	var last sched.ShardProgress
	snaps := 0
	pcfg := sched.ParallelConfig{Workers: 4, Progress: func(p sched.ShardProgress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Executions < last.Executions || p.Shards < last.Shards || p.Done < last.Done {
			t.Errorf("progress went backwards: %+v after %+v", p, last)
		}
		last = p
		snaps++
	}}
	stats, err := sched.ExploreParallel(sched.ExploreConfig{PreemptionBound: 2}, pcfg, mk, func(o *sched.Outcome, p sched.Pos) bool { return true })
	if err != nil {
		t.Fatalf("parallel explore: %v", err)
	}
	if snaps == 0 {
		t.Fatalf("progress callback never invoked")
	}
	if last.Done != last.Shards {
		t.Fatalf("final progress has %d done of %d shards", last.Done, last.Shards)
	}
	if last.Executions != stats.Executions {
		t.Fatalf("final progress reports %d executions, stats %d", last.Executions, stats.Executions)
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
		pcfg := sched.ParallelConfig{Workers: 1 + rng.Intn(8)}
		after := 1 + rng.Intn(3)
		tag := fmt.Sprintf("iter=%d threads=%v bound=%d workers=%d recruit-after=%d", iter, mkOps, bound, pcfg.Workers, after)

		seqMS, seqStats, seqErr := exploreSeq(t, cfg, mk())
		restore := sched.SetRecruitAfter(after)
		parMS, parStats, parErr := explorePar(t, cfg, pcfg, mk)
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

// TestParallelProgressSealedAfterReturn is the regression test for the final
// progress emission: ExploreParallel must deliver a closing snapshot with the
// complete merged totals exactly once, and the callback must never fire after
// the call returns — a late shard-retire emission used to race with (and
// sometimes outrun) the caller tearing the sink down. The early-cancel
// variant is the hard case: workers are still retiring abandoned shards
// while the coordinator unwinds.
func TestParallelProgressSealedAfterReturn(t *testing.T) {
	sched.RequireNoLeaks(t)
	recruitEarly(t)
	mk := func() sched.Program {
		return sched.Program{Threads: []func(*sched.Thread){opThread(2, "a"), opThread(2, "b")}}
	}
	for _, tc := range []struct {
		name   string
		cancel bool
	}{
		{"full", false},
		{"cancel", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				sealed bool
				count  int
				last   sched.ShardProgress
			)
			pcfg := sched.ParallelConfig{Workers: 4, Progress: func(p sched.ShardProgress) {
				mu.Lock()
				defer mu.Unlock()
				if sealed {
					t.Errorf("progress emitted after ExploreParallel returned: %+v", p)
				}
				count++
				last = p
			}}
			var visited int32
			visit := func(o *sched.Outcome, p sched.Pos) bool {
				if !tc.cancel {
					return true
				}
				mu.Lock()
				visited++
				stop := visited >= 5
				mu.Unlock()
				return !stop
			}
			stats, err := sched.ExploreParallel(sched.ExploreConfig{PreemptionBound: 2}, pcfg, mk, visit)
			if err != nil {
				t.Fatalf("parallel explore: %v", err)
			}
			mu.Lock()
			sealed = true
			final, n := last, count
			mu.Unlock()
			if n == 0 {
				t.Fatal("progress callback never invoked")
			}
			if final.Done != final.Shards {
				t.Errorf("final snapshot incomplete: %d done of %d shards", final.Done, final.Shards)
			}
			// Progress counts every execution started; after a cancellation the
			// statistics count only those at or before the stop.
			if final.Executions < stats.Executions || (!tc.cancel && final.Executions != stats.Executions) {
				t.Errorf("final snapshot reports %d executions, returned stats %d", final.Executions, stats.Executions)
			}
			// Any emission still in flight at return would trip the sealed
			// check above; give a buggy implementation a beat to do so.
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			if count != n {
				t.Errorf("%d progress emissions arrived after return", count-n)
			}
			mu.Unlock()
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
			_, err := sched.ExploreParallel(cfg, sched.ParallelConfig{Workers: 4}, mk, func(o *sched.Outcome, _ sched.Pos) bool {
				if fullKey(o) == bad {
					panic("visitor exploded")
				}
				return true
			})
			t.Fatalf("rep %d: ExploreParallel returned (err=%v) although a visit panicked", rep, err)
		}()
	}
}
