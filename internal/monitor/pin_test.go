package monitor_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// pinHistory generates a concurrent history of nOps operations on the given
// number of threads; next draws an operation name and the results come from
// stepping a live model at return time, so the completion order is a witness.
func pinHistory(rng *rand.Rand, m *monitor.Model, threads, nOps int, next func() string) *history.History {
	b := newHB()
	state := m.Init()
	open := map[int]string{}
	issued := 0
	for issued < nOps || len(open) > 0 {
		th := rng.Intn(threads)
		if op, busy := open[th]; busy && (rng.Intn(2) == 0 || issued >= nOps) {
			res, nextState, err := m.Step(state, op)
			if err != nil {
				panic(err) // the generated vocabularies never block
			}
			state = nextState
			b.ret(th, res)
			delete(open, th)
		} else if !busy && issued < nOps {
			op := next()
			b.call(th, op)
			open[th] = op
			issued++
		}
	}
	return b.done()
}

func pinQueueHistory(rng *rand.Rand, threads, nOps int) *history.History {
	return pinHistory(rng, monitor.QueueModel(), threads, nOps, func() string {
		if rng.Intn(2) == 0 {
			return "Enqueue(" + strconv.Itoa(rng.Intn(3)) + ")"
		}
		return "TryDequeue()"
	})
}

func pinSetHistory(rng *rand.Rand, threads, nOps, keys int) *history.History {
	return pinHistory(rng, monitor.SetModel(), threads, nOps, func() string {
		return []string{"Add", "Remove", "Contains"}[rng.Intn(3)] + "(" + strconv.Itoa(rng.Intn(keys)) + ")"
	})
}

// corruptReturn replaces the result of the k-th return (counted from the
// middle of the history, so the search has work to do on both sides of it)
// with a value the model cannot have produced there.
func corruptReturn(h *history.History, wrong ...string) *history.History {
	out := &history.History{Events: append([]history.Event(nil), h.Events...), Stuck: h.Stuck}
	for i := len(out.Events) / 2; i < len(out.Events); i++ {
		if e := out.Events[i]; e.Kind == history.Return {
			for _, w := range wrong {
				if w != e.Result {
					out.Events[i].Result = w
					return out
				}
			}
		}
	}
	panic("no return to corrupt")
}

// truncate cuts h at the first point at or after event n where at least two
// calls are open, leaving classic pending operations.
func truncate(h *history.History, n int) *history.History {
	open := 0
	for i, e := range h.Events {
		if e.Kind == history.Call {
			open++
		} else {
			open--
		}
		if i >= n && open >= 2 {
			return &history.History{Events: append([]history.Event(nil), h.Events[:i+1]...)}
		}
	}
	panic("history never has two open calls after the cut")
}

func witnessHash(w []monitor.WitnessStep) uint64 {
	f := fnv.New64a()
	for _, s := range w {
		fmt.Fprintf(f, "%d|%s|%s\n", s.Thread, s.Op, s.Result)
	}
	return f.Sum64()
}

func describeOutcome(out *monitor.Outcome) string {
	pend := "-"
	if out.FailedPending != nil {
		pend = out.FailedPending.String()
	}
	return fmt.Sprintf("lin=%v wit=%d/%016x part=%q pend=%s visited=%d hits=%d parts=%d",
		out.Linearizable, len(out.Witness), witnessHash(out.Witness), out.FailedPart, pend,
		out.Stats.Visited, out.Stats.MemoHits, out.Stats.Parts)
}

// describeIncremental runs h through an Incremental, retiring a window at
// every quiescent point with at least window completed operations, and
// renders the number of windows, a hash of every window's verdict and
// frontier fingerprints, and Finish's outcome on the residual.
func describeIncremental(t *testing.T, m *monitor.Model, h *history.History, window int) string {
	t.Helper()
	inc, err := monitor.NewIncremental(m, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := fnv.New64a()
	var buf []history.Event
	open, completed, windows := 0, 0, 0
	for _, e := range h.Events {
		buf = append(buf, e)
		if e.Kind == history.Call {
			open++
		} else {
			open--
			completed++
		}
		if open == 0 && completed >= window {
			ok, err := inc.ExtendComplete(&history.History{Events: buf})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(f, "%v %q\n", ok, inc.FrontierFingerprints())
			windows++
			buf, completed = buf[:0], 0
		}
	}
	out, err := inc.Finish(&history.History{Events: buf, Stuck: h.Stuck})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("windows=%d frontiers=%016x consumed=%d %s", windows, f.Sum64(), inc.Consumed(), describeOutcome(out))
}

// TestSearchCountsUnchanged pins everything the witness search lets a caller
// observe — verdict, witness, the failing part and pending operation, and the
// node, memo-hit and part counts — on a seeded corpus, for Check and for
// Incremental at two window sizes (whose per-window frontier fingerprints are
// what serve checkpoints store). The rows were recorded on the searcher that
// scanned every operation at every node and tested it against a precedence
// matrix; a search that tries the same candidates in the same order
// reproduces them exactly, and one that does not moves a count or a witness.
func TestSearchCountsUnchanged(t *testing.T) {
	queue, set, flag := monitor.QueueModel(), monitor.SetModel(), flagModel()
	type pin struct {
		name string
		m    *monitor.Model
		h    *history.History
		opts monitor.Options
		incr bool // also run Incremental at windows 16 and 128
	}
	var pins []pin
	add := func(p pin) { pins = append(pins, p) }

	rng := rand.New(rand.NewSource(22))
	for _, sz := range []struct{ threads, ops int }{{2, 50}, {3, 50}, {4, 50}, {3, 300}, {4, 300}, {3, 1000}} {
		h := pinQueueHistory(rng, sz.threads, sz.ops)
		bad := corruptReturn(h, "0", "1", "Fail")
		name := fmt.Sprintf("queue-%dx%d", sz.threads, sz.ops)
		add(pin{name: name, m: queue, h: h, incr: true})
		add(pin{name: name + "-bad", m: queue, h: bad, incr: true})
		add(pin{name: name + "-truncated", m: queue, h: truncate(h, len(h.Events)*2/3)})
		add(pin{name: name + "-bad-truncated", m: queue, h: truncate(bad, len(h.Events)*2/3)})
		if sz.ops == 50 {
			add(pin{name: name + "-nomemo", m: queue, h: h, opts: monitor.Options{NoMemo: true}})
			add(pin{name: name + "-bad-nomemo", m: queue, h: bad, opts: monitor.Options{NoMemo: true}})
		}
	}
	setH := pinSetHistory(rng, 4, 2000, 64)
	setBad := corruptReturn(setH, "true", "false")
	add(pin{name: "set-4x2000", m: set, h: setH, incr: true})
	add(pin{name: "set-4x2000-bad", m: set, h: setBad, incr: true})
	add(pin{name: "set-4x2000-nopartition", m: set, h: setH, opts: monitor.Options{NoPartition: true}})
	add(pin{name: "set-4x2000-bad-nopartition", m: set, h: setBad, opts: monitor.Options{NoPartition: true}})
	add(pin{name: "set-4x2000-truncated", m: set, h: truncate(setH, 3000)})
	for i := 0; i < 6; i++ {
		h := randomFlagHistory(rng, 12+6*i, 2+i%2, i%3 == 2)
		add(pin{name: fmt.Sprintf("flag-stuck-%d", i), m: flag, h: h, incr: true})
		if i < 3 {
			add(pin{name: fmt.Sprintf("flag-stuck-%d-nomemo", i), m: flag, h: h, opts: monitor.Options{NoMemo: true}})
		}
	}

	got := make([]string, 0, len(pins))
	for _, p := range pins {
		out, err := monitor.Check(p.m, p.h, p.opts)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		row := p.name + ": " + describeOutcome(out)
		if p.incr {
			row += "\n\tw16: " + describeIncremental(t, p.m, p.h, 16) +
				"\n\tw128: " + describeIncremental(t, p.m, p.h, 128)
		}
		got = append(got, row)
	}
	golden, err := os.ReadFile("testdata/search_counts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(golden) {
		gl, wl := strings.Split(g, "\n"), strings.Split(string(golden), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<none>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Logf("full output:\n%s", g)
	}
}
