package sched_test

import (
	"hash/fnv"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// subjectProgram runs one row of operations per thread on a fresh object of
// sub, the shape core.Check explores.
func subjectProgram(sub *core.Subject, rows [][]core.Op) sched.Program {
	var obj any
	prog := sched.Program{Setup: func(t *sched.Thread) { obj = sub.New(t) }}
	for _, row := range rows {
		row := row
		prog.Threads = append(prog.Threads, func(t *sched.Thread) {
			for _, op := range row {
				t.OpStart(op.Name())
				t.OpEnd(op.Name(), op.Run(t, obj))
			}
		})
	}
	return prog
}

func causeCase(t *testing.T, c bench.Cause) bench.CauseCase {
	t.Helper()
	for _, cc := range bench.CauseCases() {
		if cc.Cause == c {
			return cc
		}
	}
	t.Fatalf("no cause case %s", c)
	return bench.CauseCase{}
}

// waitSetProgram has two waiters and a thread that signals once and then
// broadcasts; a waiter that registers after the broadcast deadlocks.
func waitSetProgram() sched.Program {
	var ws sched.WaitSet
	waiter := func(name string) func(*sched.Thread) {
		return func(t *sched.Thread) {
			t.OpStart(name)
			ws.Wait(t)
			t.OpEnd(name, "ok")
		}
	}
	return sched.Program{
		Setup: func(*sched.Thread) { ws = sched.WaitSet{} },
		Threads: []func(*sched.Thread){
			waiter("wait0"), waiter("wait1"),
			func(t *sched.Thread) {
				t.OpStart("signal")
				t.Point()
				ws.Signal(t)
				t.OpEnd("signal", "ok")
				t.OpStart("broadcast")
				t.Point()
				ws.Broadcast(t)
				t.OpEnd("broadcast", "ok")
			},
		},
	}
}

// registryTraces holds the decision-trace hash of each registry subject's
// fixed 2x2 test (see TestDecisionTraceUnchanged).
var registryTraces = map[string]uint64{
	"Lazy":                      0xcd7933c498391e76,
	"Lazy(Pre)":                 0x16a06979e3c758c,
	"ManualResetEvent":          0x76e5d290c29fed2c,
	"ManualResetEvent(Pre)":     0x438ff7912f38c526,
	"SemaphoreSlim":             0xcf6f3484adcbe421,
	"SemaphoreSlim(Pre)":        0x36fc4884fd72c64c,
	"CountdownEvent":            0xa088ec1e047e3024,
	"CountdownEvent(Pre)":       0xa088ec1e047e3024,
	"ConcurrentDictionary":      0x7dc131c34ec33803,
	"ConcurrentQueue":           0x22d542dc147e0ebb,
	"ConcurrentQueue(Pre)":      0x4a0e6f495a993e50,
	"ConcurrentStack":           0x3f19a2af32ef3850,
	"ConcurrentStack(Pre)":      0x3f19a2af32ef3850,
	"ConcurrentLinkedList":      0x60b06bfadd749892,
	"BlockingCollection":        0x168cb54c010621cc,
	"BlockingCollection(Pre)":   0x5e83c5155cc072d9,
	"ConcurrentBag":             0x4cfabf9547467b5b,
	"TaskCompletionSource":      0x1ce54f7ada1893ba,
	"TaskCompletionSource(Pre)": 0x7acf5a6edf5b07a7,
	"CancellationTokenSource":   0x3bf8713c91c0132f,
	"Barrier":                   0x9b99cc4aac9d62e7,
}

// TestDecisionTraceUnchanged pins the scheduler's observable behaviour as one
// hash per exploration: every Controller.Pick call (cur, curEnabled, enabled,
// pick) of every execution, each outcome's Events, Schedule and Stuck, and
// the exploration's statistics. The constants were recorded on the
// message-pump scheduler (one round trip through a scheduler goroutine per
// point) before decisions moved onto the running thread's goroutine; any
// change to what is decided, in which order, or with which arguments moves
// them.
func TestDecisionTraceUnchanged(t *testing.T) {
	sched.RequireNoLeaks(t)
	fig1 := causeCase(t, bench.CauseB)
	fig9 := causeCase(t, bench.CauseA)
	isSet, ok := fig9.Subject.FindOp("IsSet()")
	if !ok {
		t.Fatal("ManualResetEvent(Pre) has no IsSet()")
	}
	type traceCase struct {
		name string
		cfg  sched.ExploreConfig
		prog sched.Program
		want uint64
	}
	cases := []traceCase{
		{"fig1-2x2-pb2", sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionNone},
			subjectProgram(fig1.Subject, fig1.Test.Rows), 0x9613f99fe5c83d80},
		{"fig9-observer-pb3-sleep", sched.ExploreConfig{PreemptionBound: 3, Reduction: sched.ReductionSleep},
			subjectProgram(fig9.Subject, append(append([][]core.Op(nil), fig9.Test.Rows...), []core.Op{isSet})), 0xabf3ec5d97cd0b0b},
		{"serial-3x3", sched.ExploreConfig{Config: sched.Config{Serial: true}, PreemptionBound: sched.Unbounded},
			sched.Program{Threads: []func(*sched.Thread){opThread(3, "a"), opThread(3, "b"), opThread(3, "c")}}, 0x52b630b1ff5f0ad1},
		{"waitset-deadlock", sched.ExploreConfig{PreemptionBound: 2, Reduction: sched.ReductionNone}, waitSetProgram(), 0xb72589d986a594ec},
		{"diverge-maxopsteps", sched.ExploreConfig{Config: sched.WithMaxOpSteps(sched.Config{}, 5), PreemptionBound: 2, Reduction: sched.ReductionNone},
			sched.Program{Threads: []func(*sched.Thread){
				func(t *sched.Thread) {
					t.OpStart("spin")
					for {
						t.Yield()
					}
				},
				opThread(2, "b"),
			}}, 0x9680656439585dad},
	}
	// One fixed 2x2 test per registry subject, corrected and (Pre), at the
	// class's bound under the default reduction: the hashes pin what each
	// class's constructor allocates and each operation touches.
	for _, e := range bench.Registry() {
		for _, sub := range []*core.Subject{e.Subject, e.Pre} {
			if sub == nil {
				continue
			}
			want, ok := registryTraces[sub.Name]
			if !ok {
				t.Errorf("no pinned decision trace for %s", sub.Name)
			}
			cases = append(cases, traceCase{sub.Name + "-2x2", sched.ExploreConfig{PreemptionBound: e.Bound},
				subjectProgram(sub, core.SampleTests(sub.Ops, 2, 2, 1, 1)[0].Rows), want})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			num := func(vs ...int) {
				var b [8]byte
				for _, v := range vs {
					for i := range b {
						b[i] = byte(uint64(v) >> (8 * i))
					}
					h.Write(b[:])
				}
			}
			flag := func(v bool) {
				if v {
					num(1)
				} else {
					num(0)
				}
			}
			str := func(s string) {
				num(len(s))
				h.Write([]byte(s))
			}
			stuck := 0
			stats, err := sched.ExploreTraced(tc.cfg, tc.prog, func(o *sched.Outcome, picks []sched.PickRecord) bool {
				num(len(picks))
				for _, p := range picks {
					num(int(p.Cur), len(p.Enabled), int(p.Pick))
					flag(p.CurEnabled)
					for _, id := range p.Enabled {
						num(int(id))
					}
				}
				num(len(o.Events))
				for _, e := range o.Events {
					num(int(e.Thread), int(e.Kind), e.OpIndex)
					str(e.Op)
					str(e.Result)
				}
				num(len(o.Schedule), o.Decisions)
				for _, id := range o.Schedule {
					num(int(id))
				}
				flag(o.Stuck)
				if o.Stuck {
					stuck++
				}
				return true
			})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			num(stats.Executions, stats.Decisions, stats.Pruned)
			t.Logf("%d executions (%d stuck), %d decisions, %d pruned", stats.Executions, stuck, stats.Decisions, stats.Pruned)
			if got := h.Sum64(); got != tc.want {
				t.Errorf("decision trace hash = %#x, want %#x", got, tc.want)
			}
		})
	}
}
