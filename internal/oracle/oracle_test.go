package oracle

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/sched"
	"lineup/internal/subjects"
)

// oracleCase is FuzzOracle's body. It holds every model-level procedure to
// the definition on a hostile history of targets[sel], the spec trie on the
// store program spells, and, when sel is 248 or more, phase 1 and the
// explorer's histories of a corpus subject on a small random test.
func oracleCase(t *testing.T, seed int64, sel uint8, cuts uint64, program []byte) {
	rng := rand.New(rand.NewSource(seed))
	tg := targets[int(sel)%len(targets)]
	checkModel(t, tg.m, hostileHistory(rng, tg, 2+rng.Intn(5)), cuts)
	store, queries := specProgram(program)
	checkTrie(t, store, queries)
	if sel >= 0xf8 {
		e := subjects.Registry()[rng.Intn(len(subjects.Registry()))]
		sub := []*core.Subject{e.Subject, e.Pre}[rng.Intn(2)]
		m := &core.Test{Init: e.StrictTest.Init, Rows: randomRows(rng, sub, 2, 1+rng.Intn(2))}
		checkExplored(t, sub, m, e.Model, checkPhase1(t, sub, m), core.Options{PreemptionBound: e.Bound})
	}
}

// randomRows draws rows x cols operations from sub's invocation universe.
func randomRows(rng *rand.Rand, sub *core.Subject, rows, cols int) [][]core.Op {
	out := make([][]core.Op, rows)
	for r := range out {
		for c := 0; c < cols; c++ {
			out[r] = append(out[r], sub.Ops[rng.Intn(len(sub.Ops))])
		}
	}
	return out
}

// FuzzOracle holds every decision procedure to the one definition (see
// oracleCase). Seeds 10 to 12 are the defects the definition found first: a
// '"' in a value read back up to the quote from an observation file; a result
// that spells a further step of its thread merging two groups of the written
// spec; and, with the memo keyed by the items joined by commas (the form
// states once had), Enqueue(x) ‖ Enqueue(x,x) pruned as one state.
func FuzzOracle(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed), ^uint64(0)/3, []byte{})
	}
	f.Add(int64(10), uint8(0), uint64(0), []byte{})
	// T0:a()="0;b()=1" and T0:a()=0 T0:b()=1.
	f.Add(int64(11), uint8(0), uint64(0), []byte{2, 192, 11, 0, 4, 0, 9, 0})
	f.Add(int64(425), uint8(0), uint64(0), []byte{})
	f.Add(int64(13), uint8(0xf8), ^uint64(0), []byte{})
	f.Fuzz(oracleCase)
}

// TestOracleSweep runs FuzzOracle's body on 700 seeds in plain `go test`, so
// that without a fuzzer every adapter still meets 700 random histories and
// stores.
func TestOracleSweep(t *testing.T) {
	for seed := int64(0); seed < 700; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		program := make([]byte, rng.Intn(64))
		rng.Read(program)
		oracleCase(t, seed, uint8(rng.Intn(256)), rng.Uint64(), program)
	}
}

// The four sweeps below hold one procedure each to the definition, with the
// case counts of the references this package replaced: 400 complete and 300
// stuck queries of the spec trie, 300 queue histories for WGL, and 300 set
// histories, which WGL splits into one part per element and, with
// NoPartition, does not.
func TestWitnessFullAgainstBruteForce(t *testing.T)  { sweepTrie(t, 400, false) }
func TestWitnessStuckAgainstBruteForce(t *testing.T) { sweepTrie(t, 300, true) }
func TestCheckAgainstNaiveOracle(t *testing.T)       { sweepModel(t, 300, targets[0]) }
func TestSetPartitionAgainstNaive(t *testing.T)      { sweepModel(t, 300, targets[2]) }

// sweepTrie runs checkTrie on random store programs, keeping the queries that
// are stuck or complete as stuck says, until n such queries have been judged.
// The store also gets each kept query's completed operations in a random third
// of the orders that keep each thread's order, which may break <H, then one of
// its pending calls: a random store alone rarely holds a query's operations,
// and its witnesses would all be absent.
func sweepTrie(t *testing.T, n int, stuck bool) {
	for seed, judged := int64(1), 0; judged < n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, rng.Intn(64))
		rng.Read(program)
		store, queries := specProgram(program)
		kept := queries[:0]
		for _, h := range queries {
			if h.Stuck != stuck {
				continue
			}
			kept = append(kept, h)
			var done []history.Op
			for _, op := range h.Ops() {
				if op.Complete {
					done = append(done, op)
				}
			}
			pending := h.Pending()
			orders(len(done), func(i, j int) bool { return programOrder(done[i], done[j]) }, func(order []int) bool {
				s := &history.SerialHistory{}
				for _, i := range order {
					s.Ops = append(s.Ops, history.SerialOp{Thread: done[i].Thread, Name: done[i].Name, Result: done[i].Result})
				}
				if len(pending) > 0 {
					e := pending[rng.Intn(len(pending))]
					s.Pending = &history.SerialPending{Thread: e.Thread, Name: e.Name}
				}
				if rng.Intn(3) == 0 {
					store = append(store, s)
				}
				return false
			})
		}
		checkTrie(t, store, kept)
		judged += len(kept)
	}
}

// sweepModel runs checkModel on n hostile histories of tg.
func sweepModel(t *testing.T, n int, tg target) {
	for seed := int64(700); seed < int64(700+n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkModel(t, tg.m, hostileHistory(rng, tg, 2+rng.Intn(5)), rng.Uint64())
	}
}

// FuzzSpec spends a fuzzer's whole budget on the spec trie adapter's store
// programs.
func FuzzSpec(f *testing.F) {
	f.Add([]byte{})
	// inc;get=1 and inc;get=0: a conflicting continuation, then a query.
	f.Add([]byte{4, 0, 10, 0, 4, 0, 4, 0, 5, 0, 1, 0, 7})
	// A duplicate, a stuck tail after the same prefix, a stuck query.
	f.Add([]byte{2, 0, 0, 2, 0, 0, 2, 0, 3, 3, 0, 1})
	// Dec returns and Dec blocks from the empty prefix.
	f.Add([]byte{2, 0, 0, 0, 1})
	// b;a stored, queried with a's return right after b's call: overlapping,
	// so the order is free (an off-by-one in the order check rejects it).
	f.Add([]byte("XZ.0AX01"))
	// T0:a()="0;b()=1" and T0:a()=0 T0:b()=1: one group each, whatever a
	// joined rendering of their thread subhistories makes of them.
	f.Add([]byte{2, 192, 11, 0, 4, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		store, queries := specProgram(data)
		checkTrie(t, store, queries)
	})
}

// TestOracleGolden replays the 300 hostile histories on which the brute-force
// enumerator this package replaced recorded its verdicts, one model name and
// three verdicts per history: the definition must give every one, and every
// model-level procedure must then agree with it.
func TestOracleGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/oracle.golden")
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*monitor.Model{}
	for _, tg := range targets {
		models[tg.m.Name] = tg.m
	}
	sections := strings.Split(string(golden), "\n# ")
	for i, sec := range sections {
		header, trace, _ := strings.Cut(strings.TrimPrefix(sec, "# "), "\n")
		h, err := obsfile.ReadTrace(strings.NewReader(trace))
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		name, _, _ := strings.Cut(header, " ")
		m := models[name]
		got := name
		// The third column is Definition 3 whatever h's marker says.
		for i, col := range []struct {
			h    *history.History
			mode monitor.Mode
		}{{h, monitor.ModeAuto}, {h, monitor.ModeClassic}, {markStuck(h), monitor.ModeAuto}} {
			ok, err := linearizable(m, col.h, col.mode)
			verdict := fmt.Sprint(ok)
			if err != nil {
				verdict = fmt.Sprintf("%q", "error: "+err.Error())
			}
			got += fmt.Sprintf(" %s=%s", [...]string{"auto", "classic", "generalized"}[i], verdict)
		}
		if got != header {
			t.Fatalf("history %d: the definition says %q, the golden %q\n%s", i, got, header, h)
		}
		checkModel(t, m, h, ^uint64(0)/3)
	}
	if len(sections) != 300 {
		t.Fatalf("the golden holds %d histories, want 300", len(sections))
	}
}

// TestSpecMatchesReferenceEnumeration holds phase 1 to the definition on the
// classes the RandomCheck sweeps keep in plain `go test`, with stuck serial
// histories among them, and on a subject whose serial behavior is
// nondeterministic.
func TestSpecMatchesReferenceEnumeration(t *testing.T) {
	sched.RequireNoLeaks(t)
	stuck := 0
	for _, class := range []string{
		"ConcurrentQueue", "ConcurrentQueue(Pre)", "ManualResetEvent", "ManualResetEvent(Pre)",
		"SemaphoreSlim", "SemaphoreSlim(Pre)", "BlockingCollection", "ConcurrentBag",
	} {
		sub, _, ok := bench.Find(class)
		if !ok {
			t.Fatalf("class %s is not in the registry", class)
		}
		t.Run(class, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
				for i := 0; i < 2; i++ {
					stuck += checkPhase1(t, sub, &core.Test{Rows: randomRows(rng, sub, shape[0], shape[1])}).NumStuck()
				}
			}
		})
	}
	if stuck == 0 {
		t.Fatalf("the sample covers no stuck serial history")
	}
	// The scheduler is deterministic, so no registry class is serially
	// nondeterministic. A subject whose results depend on how many objects
	// were built before is: successive executions disagree on the first call.
	// Its histories differ from run to run, so only the verdicts compare.
	t.Run("flaky", func(t *testing.T) {
		built := 0
		flip := core.Op{Method: "Flip", Run: func(*sched.Thread, any) string { return fmt.Sprint(built % 2) }}
		sub := &core.Subject{Name: "Flaky", New: func(*sched.Thread) any { built++; return nil }, Ops: []core.Op{flip}}
		m := &core.Test{Rows: [][]core.Op{{flip, flip}, {flip}}}
		spec, _, err := core.SynthesizeSpec(sub, m, core.Options{})
		if err != nil {
			t.Fatalf("phase 1: %v", err)
		}
		if _, bad := spec.Nondeterministic(); !bad || !serialSpec(t, sub, m).nondet {
			t.Fatalf("flaky subject not flagged: spec %v", bad)
		}
		roundTrip(t, spec)
	})
}

// TestExplorerHistories holds every history the explorer emits for the
// corpus subjects' directed tests — correct and defect-seeded, so linearizable
// and non-linearizable histories alike — to the definition, through WGL and
// phase-1 spec lookup.
func TestExplorerHistories(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range subjects.Registry() {
		for _, sub := range []*core.Subject{e.Subject, e.Pre} {
			t.Run(sub.Name, func(t *testing.T) {
				spec := checkPhase1(t, sub, e.StrictTest)
				if n := checkExplored(t, sub, e.StrictTest, e.Model, spec, core.Options{PreemptionBound: e.Bound}); n == 0 {
					t.Fatal("explorer emitted no histories")
				}
			})
		}
	}
}

// counterSerial returns every serial history of a counter under a test of
// rows x cols operations, thread 0 incrementing and the others reading, in
// the order the serial orders are enumerated: histories that differ only in
// the order of operations that commute share their thread subhistories, as
// they do in a phase-1 spec.
func counterSerial(rows, cols int) []*history.SerialHistory {
	var ops []history.Op
	for th := 0; th < rows; th++ {
		for c := 0; c < cols; c++ {
			name := "Get()"
			if th == 0 {
				name = "Inc()"
			}
			ops = append(ops, history.Op{Thread: th, Name: name, CallPos: len(ops)})
		}
	}
	var out []*history.SerialHistory
	if err := serialRuns(monitor.CounterModel(), ops, func(s *history.SerialHistory) { out = append(out, s) }); err != nil {
		panic(err)
	}
	return out
}

// TestSpecThreeByThree runs the trie adapter at the size phase 1 produces for
// a 3x3 test: 1680 histories, ten of them stored twice.
func TestSpecThreeByThree(t *testing.T) {
	all := counterSerial(3, 3)
	if len(all) != 1680 {
		t.Fatalf("expected 1680 interleavings, got %d", len(all))
	}
	checkTrie(t, append(all, all[:10]...), nil)
}

// TestSpecAllocs pins the allocation behaviour the trie exists for: a
// duplicate Add and a witness query allocate nothing beyond History.Ops, and
// a fresh 3x3-sized Add allocates its nodes and tables, not a string per
// prefix.
func TestSpecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	all := counterSerial(3, 3)
	sp := history.NewSpec()
	for _, s := range all[:len(all)/2] {
		sp.Add(s)
	}
	if n := testing.AllocsPerRun(10, func() { sp.Add(all[7]) }); n > 0 {
		t.Errorf("duplicate Add: %.0f allocs, want 0", n)
	}
	fresh := all[len(all)/2:]
	i := 0
	perAdd := testing.AllocsPerRun(len(fresh)-1, func() { sp.Add(fresh[i]); i++ })
	t.Logf("fresh 3x3 Add: %.1f allocs", perAdd)
	if perAdd > 20 {
		t.Errorf("fresh Add: %.1f allocs per history exceeds the ceiling of 20", perAdd)
	}
	h := asHistory(all[99])
	opsAllocs := testing.AllocsPerRun(10, func() { h.Ops() })
	n := testing.AllocsPerRun(10, func() {
		if _, ok := sp.WitnessFull(h); !ok {
			t.Fatal("stored history has no witness")
		}
	})
	t.Logf("WitnessFull: %.0f allocs, of which History.Ops %.0f", n, opsAllocs)
	if n > opsAllocs {
		t.Errorf("WitnessFull: %.0f allocs beyond the %.0f of History.Ops", n-opsAllocs, opsAllocs)
	}
}

func BenchmarkSpecAdd(b *testing.B) {
	all := counterSerial(3, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := history.NewSpec()
		for _, s := range all {
			sp.Add(s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/history")
}

func BenchmarkSpecWitnessFull(b *testing.B) {
	all := counterSerial(3, 3)
	sp := history.NewSpec()
	hs := make([]*history.History, len(all))
	for i, s := range all {
		sp.Add(s)
		hs[i] = asHistory(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sp.WitnessFull(hs[i%len(hs)]); !ok {
			b.Fatal("stored history has no witness")
		}
	}
}

// rounds builds rounds of mutually concurrent operations: in each, every
// listed thread calls, then every thread returns, so the operations of a
// round overlap pairwise while successive rounds are ordered by <H. ops[r][i]
// is {name, result} for thread i of round r.
func rounds(ops ...[][2]string) *history.History {
	h := &history.History{}
	for _, round := range ops {
		base := len(h.Events) / 2
		for th, op := range round {
			h.Events = append(h.Events, history.Event{Thread: th, Kind: history.Call, Op: op[0], Index: base + th})
		}
		for th, op := range round {
			h.Events = append(h.Events, history.Event{Thread: th, Kind: history.Return, Op: op[0], Result: op[1], Index: base + th})
		}
	}
	return h
}

// BenchmarkMonitorVsEnumeration pits the monitor's memoized Wing–Gong search
// (and, on the set model, its P-compositional partitioning) against the
// definition's enumeration on histories that force a full refutation: rounds
// of concurrent Inc()s followed by a Get() one too high, and one wide round in
// which every set element is added twice with both adds claiming a change.
// The gap widens with history width.
func BenchmarkMonitorVsEnumeration(b *testing.B) {
	counter := monitor.CounterModel()
	for _, cfg := range []struct{ threads, rounds int }{{3, 3}, {4, 3}, {4, 4}} {
		var rs [][][2]string
		for r := 0; r < cfg.rounds; r++ {
			round := make([][2]string, cfg.threads)
			for i := range round {
				round[i] = [2]string{"Inc()", "ok"}
			}
			rs = append(rs, round)
		}
		h := rounds(append(rs, [][2]string{{"Get()", fmt.Sprint(cfg.threads*cfg.rounds + 1)}})...)
		name := fmt.Sprintf("%dx%d", cfg.threads, cfg.rounds)
		for _, v := range []struct {
			name   string
			decide func() (bool, error)
		}{
			{"memoized", func() (bool, error) { return check(counter, h, monitor.Options{}) }},
			{"naive-enumeration", func() (bool, error) { return linearizable(counter, h, monitor.ModeAuto) }},
		} {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if ok, err := v.decide(); ok || err != nil {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
				}
			})
		}
	}
	set := monitor.SetModel()
	var wide [][2]string
	for k := 0; k < 6; k++ {
		op := fmt.Sprintf("Add(k%d)", k)
		wide = append(wide, [2]string{op, "true"}, [2]string{op, "true"})
	}
	hset := rounds(wide)
	for name, opts := range map[string]monitor.Options{"set6/partitioned": {}, "set6/unsplit": {NoPartition: true}} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, err := check(set, hset, opts); ok || err != nil {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// check is monitor.Check's verdict.
func check(m *monitor.Model, h *history.History, opts monitor.Options) (bool, error) {
	out, err := monitor.Check(m, h, opts)
	if err != nil {
		return false, err
	}
	return out.Linearizable, nil
}
