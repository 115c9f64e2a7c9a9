package monitor_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// quiescentWindows cuts h at every quiescent point with at least n completed
// operations since the last cut; the events after the last cut are dropped.
func quiescentWindows(h *history.History, n int) []*history.History {
	var out []*history.History
	open, completed, start := 0, 0, 0
	for i, e := range h.Events {
		if e.Kind == history.Call {
			open++
		} else {
			open--
			completed++
		}
		if open == 0 && completed >= n {
			out = append(out, &history.History{Events: h.Events[start : i+1]})
			start, completed = i+1, 0
		}
	}
	return out
}

// TestPooledSearcherCarriesNothingOver: searchers are pooled, so the one a
// model's panic abandons mid-search — operations lifted, a half-built
// linearization, a seen-set full of a corrupted history's failures, an
// enumeration's final states — is the next one this goroutine gets. A queue
// Check and an Incremental window of the uncorrupted history must then give
// what a fresh process gives (the pinned row, recorded by running this test
// alone).
func TestPooledSearcherCarriesNothingOver(t *testing.T) {
	queue := monitor.QueueModel()
	h := pinQueueHistory(rand.New(rand.NewSource(28)), 3, 64)
	bad := corruptReturn(h, "0", "1", "Fail")
	const fresh = `lin=true wit=64/4f24b206bd3653aa part="" pend=- visited=132 hits=11 parts=1 | ` +
		`ok=true err=<nil> stats={Parts:1 Visited:408 MemoHits:156} frontier=[` +
		`"\x011\x011\x012\x010\x011\x012\x012" "\x011\x011\x012\x011\x010\x012\x012" ` +
		`"\x011\x012\x011\x010\x011\x012\x012" "\x011\x012\x011\x011\x010\x012\x012" ` +
		`"\x012\x011\x011\x010\x011\x012\x012" "\x012\x011\x011\x011\x010\x012\x012"]`
	run := func() string {
		out := mustCheck(t, queue, h, monitor.Options{})
		inc, err := monitor.NewIncremental(queue, monitor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := inc.ExtendComplete(h)
		return fmt.Sprintf("%s | ok=%v err=%v stats=%+v frontier=%q", describeOutcome(out), ok, err, inc.Stats(), inc.FrontierStates())
	}
	if got := run(); got != fresh {
		t.Fatalf("before any panic:\n got  %s\n want %s", got, fresh)
	}

	// boom panics halfway through a search of Check on the corrupted history,
	// or of ExtendComplete on the history with one more Enqueue, whose final
	// states all differ from the history's own. The number of steps the
	// search takes is counted first, with limit 0.
	more := newHB()
	more.h.Events = append(more.h.Events, h.Events...)
	more.next = len(h.Events)
	more.op(0, "Enqueue(7)", "ok")
	steps, limit := 0, 0
	boom := &monitor.Model{Name: "boom", Init: queue.Init, Step: func(state, op string) (string, string, error) {
		if steps++; steps == limit {
			panic("boom")
		}
		return queue.Step(state, op)
	}}
	for _, search := range []struct {
		name string
		run  func() error
	}{
		{"Check", func() error {
			out, err := monitor.Check(boom, bad, monitor.Options{})
			if err == nil && out.Linearizable {
				t.Fatal("the corrupted history is linearizable")
			}
			return err
		}},
		{"ExtendComplete", func() error {
			inc, err := monitor.NewIncremental(boom, monitor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = inc.ExtendComplete(more.done())
			return err
		}},
	} {
		steps, limit = 0, 0
		if err := search.run(); err != nil {
			t.Fatalf("%s counting steps: %v", search.name, err)
		}
		if steps < 100 {
			t.Fatalf("%s: the search took %d steps, too few to leave much behind", search.name, steps)
		}
		steps, limit = 0, steps/2
		if err := search.run(); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: the panic came back as %v, want a contained error", search.name, err)
		}
		if got := run(); got != fresh {
			t.Fatalf("after a panic in %s:\n got  %s\n want %s", search.name, got, fresh)
		}
	}
}

// TestIncrementalsShareNoSearcher: a queue and a set Incremental retire their
// windows alternately on one goroutine, so each window's searcher was last
// loaded with the other model. Every window must leave the frontier it leaves
// when its Incremental runs alone.
func TestIncrementalsShareNoSearcher(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	models := []*monitor.Model{monitor.QueueModel(), monitor.SetModel()}
	windows := [][]*history.History{
		quiescentWindows(pinQueueHistory(rng, 3, 300), 16),
		quiescentWindows(pinSetHistory(rng, 3, 300, 4), 16),
	}
	// frontiers retires the windows of the models whose indices are listed,
	// taking one window of each in turn, and returns every model's frontier
	// after each of its windows.
	frontiers := func(which ...int) [][][]string {
		out := make([][][]string, len(models))
		incs := make([]*monitor.Incremental, len(models))
		for _, k := range which {
			inc, err := monitor.NewIncremental(models[k], monitor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			incs[k] = inc
		}
		for w := 0; w < len(windows[0]) || w < len(windows[1]); w++ {
			for _, k := range which {
				if w >= len(windows[k]) {
					continue
				}
				if ok, err := incs[k].ExtendComplete(windows[k][w]); err != nil || !ok {
					t.Fatalf("%s window %d: ok=%v err=%v", models[k].Name, w, ok, err)
				}
				out[k] = append(out[k], incs[k].FrontierStates())
			}
		}
		return out
	}
	alone := [][][]string{frontiers(0)[0], frontiers(1)[1]}
	if len(alone[0]) < 5 || len(alone[1]) < 5 {
		t.Fatalf("%d queue and %d set windows, want at least 5 of each", len(alone[0]), len(alone[1]))
	}
	if together := frontiers(0, 1); !reflect.DeepEqual(together, alone) {
		t.Fatalf("alternating windows end on other frontiers:\n together %q\n alone    %q", together, alone)
	}
}
