package history_test

import (
	"fmt"
	"reflect"
	"testing"

	"lineup/internal/history"
)

// refSpec is the map-based reference the trie Spec is checked against: string
// keys for deduplication and for the determinism check (serial prefix plus
// next call maps to the one outcome seen), flat candidate lists, and witness
// search by the pairwise definition.
type refSpec struct {
	seen        map[string]bool
	cont        map[string]string
	full, stuck []*history.SerialHistory
	nondet      bool
}

func newRefSpec() *refSpec {
	return &refSpec{seen: map[string]bool{}, cont: map[string]string{}}
}

func (r *refSpec) add(s *history.SerialHistory) {
	if r.seen[s.Key()] {
		return
	}
	r.seen[s.Key()] = true
	prefix := ""
	note := func(thread int, call, outcome string) {
		k := fmt.Sprintf("%s|%d:%s", prefix, thread, call)
		if prev, ok := r.cont[k]; !ok {
			r.cont[k] = outcome
		} else if prev != outcome {
			r.nondet = true
		}
		prefix += fmt.Sprintf("%d:%s=%s;", thread, call, outcome)
	}
	for _, op := range s.Ops {
		note(op.Thread, op.Name, op.Result)
	}
	if s.Pending != nil {
		note(s.Pending.Thread, s.Pending.Name, "#")
		r.stuck = append(r.stuck, s)
	} else {
		r.full = append(r.full, s)
	}
}

// witness reports whether some candidate has exactly the thread subhistories
// of ops (complete operations by result, the one pending operation as the
// candidate's pending call) and orders them consistently with <H.
func witness(cands []*history.SerialHistory, ops []history.Op) bool {
	type slot struct{ thread, k int }
next:
	for _, c := range cands {
		pos := map[slot]int{}
		perThread := map[int]int{}
		for i, so := range c.Ops {
			pos[slot{so.Thread, perThread[so.Thread]}] = i
			perThread[so.Thread]++
		}
		n := len(c.Ops)
		if c.Pending != nil {
			n++
		}
		if n != len(ops) {
			continue
		}
		at := make([]int, len(ops))
		seen := map[int]int{}
		for i, op := range ops {
			k := seen[op.Thread]
			seen[op.Thread]++
			if !op.Complete {
				if c.Pending == nil || c.Pending.Thread != op.Thread || c.Pending.Name != op.Name || k != perThread[op.Thread] {
					continue next
				}
				at[i] = len(c.Ops)
				continue
			}
			p, ok := pos[slot{op.Thread, k}]
			if !ok || c.Ops[p].Name != op.Name || c.Ops[p].Result != op.Result {
				continue next
			}
			at[i] = p
		}
		for i := range ops {
			for j := range ops {
				if history.Precedes(ops[i], ops[j]) && at[i] >= at[j] {
					continue next
				}
			}
		}
		return true
	}
	return false
}

// reduced is H[e]: the completed operations of h plus the pending e.
func reduced(h *history.History, e history.Op) []history.Op {
	var ops []history.Op
	for _, op := range h.Ops() {
		if op.Complete || op.Index == e.Index {
			ops = append(ops, op)
		}
	}
	return ops
}

// asHistory is the serial execution s records, as an event sequence.
func asHistory(s *history.SerialHistory) *history.History {
	h := &history.History{Stuck: s.Stuck()}
	for i, op := range s.Ops {
		h.Events = append(h.Events,
			history.Event{Thread: op.Thread, Kind: history.Call, Op: op.Name, Index: i},
			history.Event{Thread: op.Thread, Kind: history.Return, Op: op.Name, Result: op.Result, Index: i})
	}
	if s.Pending != nil {
		h.Events = append(h.Events, history.Event{Thread: s.Pending.Thread, Kind: history.Call, Op: s.Pending.Name, Index: len(s.Ops)})
	}
	return h
}

var (
	fuzzNames   = []string{"a()", "b()"}
	fuzzResults = []string{"0", "1", "ok"}
)

// specProgram decodes a byte program into serial histories to store and
// concurrent histories to query. The alphabet is tiny on purpose: duplicates,
// stuck tails and conflicting continuations all arise within a few bytes.
func specProgram(data []byte) (store []*history.SerialHistory, queries []*history.History) {
	if len(data) > 192 {
		data = data[:192] // the reference is quadratic, and the fuzzer minimizes by re-running
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 {
		head := next()
		n := head >> 1 % 6
		if head&1 == 0 {
			s := &history.SerialHistory{}
			for i := 0; i < n; i++ {
				b := next()
				s.Ops = append(s.Ops, history.SerialOp{Thread: b % 3, Name: fuzzNames[b/3%2], Result: fuzzResults[b/6%3]})
			}
			if b := next(); b&1 == 1 {
				s.Pending = &history.SerialPending{Thread: b >> 1 % 3, Name: fuzzNames[b>>3%2]}
			}
			store = append(store, s)
			continue
		}
		// A concurrent history: each byte calls on an idle thread or returns
		// the thread's operation in flight; what is in flight at the end stays
		// pending.
		h := &history.History{}
		inFlight := map[int]history.Event{}
		for i := 0; i < 2*n; i++ {
			b := next()
			th := b % 3
			if call, busy := inFlight[th]; busy {
				h.Events = append(h.Events, history.Event{Thread: th, Kind: history.Return, Op: call.Op, Result: fuzzResults[b/3%3], Index: call.Index})
				delete(inFlight, th)
			} else {
				e := history.Event{Thread: th, Kind: history.Call, Op: fuzzNames[b/3%2], Index: i}
				h.Events = append(h.Events, e)
				inFlight[th] = e
			}
		}
		h.Stuck = len(inFlight) > 0
		queries = append(queries, h)
	}
	return store, queries
}

func checkAgainstReference(t *testing.T, store []*history.SerialHistory, queries []*history.History) {
	t.Helper()
	sp, ref := history.NewSpec(), newRefSpec()
	for _, s := range store {
		sp.Add(s)
		ref.add(s)
		if _, bad := sp.Nondeterministic(); bad != ref.nondet {
			t.Fatalf("after adding %s: nondeterministic = %v, reference %v", s, bad, ref.nondet)
		}
	}
	if sp.NumFull() != len(ref.full) || sp.NumStuck() != len(ref.stuck) {
		t.Fatalf("spec holds %d full / %d stuck, reference %d / %d", sp.NumFull(), sp.NumStuck(), len(ref.full), len(ref.stuck))
	}
	// Every stored history is found again, and the queries agree.
	for _, s := range ref.full {
		queries = append(queries, asHistory(s))
	}
	for _, s := range ref.stuck {
		queries = append(queries, asHistory(s))
	}
	for _, h := range queries {
		if !h.Stuck {
			_, got := sp.WitnessFull(h)
			if want := witness(ref.full, h.Ops()); got != want {
				t.Fatalf("WitnessFull = %v, reference %v, on\n%s", got, want, h)
			}
			continue
		}
		for _, e := range h.Pending() {
			_, got := sp.WitnessStuck(h, e)
			if want := witness(ref.stuck, reduced(h, e)); got != want {
				t.Fatalf("WitnessStuck(%s) = %v, reference %v, on\n%s", e, got, want, h)
			}
		}
	}
	roundTrip(t, sp)
}

// roundTrip checks that ImportSpec(Export()) rebuilds the same groups in the
// same order with the same candidate order, which is what lets a coordinator
// ship a spec to workers that then report byte-identically.
func roundTrip(t *testing.T, sp *history.Spec) {
	t.Helper()
	back := history.ImportSpec(sp.Export())
	if !reflect.DeepEqual(back.Groups(), sp.Groups()) {
		t.Fatalf("round trip changed the groups:\n%q\n%q", sp.Groups(), back.Groups())
	}
	for _, sig := range sp.Groups() {
		f1, s1 := sp.GroupHistories(sig)
		f2, s2 := back.GroupHistories(sig)
		if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the candidates of group %q", sig)
		}
	}
	_, bad1 := sp.Nondeterministic()
	_, bad2 := back.Nondeterministic()
	if bad1 != bad2 || back.NumFull() != sp.NumFull() || back.NumStuck() != sp.NumStuck() {
		t.Fatalf("round trip changed the verdict or the counts")
	}
}

// FuzzSpec checks the trie Spec against the map-based reference on byte
// programs: counts, determinism verdict after every Add, and witness answers.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		store, queries := specProgram(data)
		checkAgainstReference(t, store, queries)
	})
}

// interleavings returns every serial history of a counter under a test of
// rows x cols operations: thread 0 increments, the others read. Histories
// that differ only in the order of overlapping-compatible operations share
// their thread subhistories, as they do in a phase-1 spec.
func interleavings(rows, cols int) []*history.SerialHistory {
	var out []*history.SerialHistory
	next := make([]int, rows)
	var cur []history.SerialOp
	var rec func(count int)
	rec = func(count int) {
		if len(cur) == rows*cols {
			out = append(out, &history.SerialHistory{Ops: append([]history.SerialOp(nil), cur...)})
			return
		}
		for th := 0; th < rows; th++ {
			if next[th] == cols {
				continue
			}
			next[th]++
			op, after := history.SerialOp{Thread: th, Name: "get()", Result: fmt.Sprint(count)}, count
			if th == 0 {
				op, after = history.SerialOp{Thread: th, Name: "inc()", Result: "ok"}, count+1
			}
			cur = append(cur, op)
			rec(after)
			cur = cur[:len(cur)-1]
			next[th]--
		}
	}
	rec(0)
	return out
}

// TestSpecThreeByThree runs the reference comparison at the size phase 1
// produces for a 3x3 test: 1680 histories.
func TestSpecThreeByThree(t *testing.T) {
	all := interleavings(3, 3)
	if len(all) != 1680 {
		t.Fatalf("expected 1680 interleavings, got %d", len(all))
	}
	checkAgainstReference(t, append(all, all[:10]...), nil)
}

// TestSpecAllocs pins the allocation behaviour the trie exists for: a
// duplicate Add and a witness query allocate nothing beyond History.Ops, and
// a fresh 3x3-sized Add allocates its nodes and tables, not a string per
// prefix.
func TestSpecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	all := interleavings(3, 3)
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
	all := interleavings(3, 3)
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
	all := interleavings(3, 3)
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
