package lineup_test

import (
	"fmt"
	"strings"

	"lineup"
)

// Example_monitor checks recorded histories without running the scheduler.
//
// The other examples let Line-Up generate the concurrent executions; this
// one feeds the standalone monitor histories recorded elsewhere, as JSONL
// traces. The first has the Fig. 1 shape: Enqueue(10) completed strictly
// before TryDequeue was even called, and yet TryDequeue failed. No serial
// order of the two operations explains that, so the monitor rejects it
// against the built-in queue model. The second overlaps the same two
// operations; linearizing TryDequeue first now yields a witness.
//
// The third is Fig. 9's lost wakeup on a manual-reset event: Wait was
// called, Set, Reset and Set completed, and Wait never returned. The
// trace's stuck marker ({"k":"stuck"}: the program blocked, it was not cut
// short) decides how the pending Wait is read. With it, Definition 3 asks
// for a serial history in which Wait blocks after the completed operations;
// the event is set by then, so there is none. Without it, the recording may
// merely have ended early, and Definition 1 drops the pending call.
func Example_monitor() {
	const (
		// The return of Enqueue(10) precedes the call of TryDequeue() in
		// real time, so every witness dequeues from a non-empty queue; the
		// recording says "Fail".
		badTrace = `# Fig. 1 shape, recorded from a queue with a lock-timeout bug
{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}
{"t":1,"k":"call","op":"TryDequeue()"}
{"t":1,"k":"ret","op":"TryDequeue()","res":"Fail"}
`
		okTrace = `{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":1,"k":"call","op":"TryDequeue()"}
{"t":1,"k":"ret","op":"TryDequeue()","res":"Fail"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}
`
		lostWakeup = `{"t":0,"k":"call","op":"Wait()"}
{"t":1,"k":"call","op":"Set()"}
{"t":1,"k":"ret","op":"Set()","res":"ok"}
{"t":1,"k":"call","op":"Reset()"}
{"t":1,"k":"ret","op":"Reset()","res":"ok"}
{"t":1,"k":"call","op":"Set()"}
{"t":1,"k":"ret","op":"Set()","res":"ok"}
`
	)
	check := func(title, model, trace string) {
		fmt.Println("--", title, "--")
		m, _ := lineup.BuiltinModel(model)
		h, err := lineup.ReadTrace(strings.NewReader(trace))
		if err != nil {
			fmt.Println(err)
			return
		}
		out, err := lineup.CheckHistory(m, h, lineup.MonitorOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("history: %d operations, %d pending, stuck %v\n", len(h.Ops()), len(h.Pending()), h.Stuck)
		switch {
		case out.Linearizable:
			fmt.Print("verdict: linearizable; witness:")
			for _, step := range out.Witness {
				fmt.Printf(" %s", step)
			}
			fmt.Println()
		case out.FailedPending != nil:
			fmt.Printf("verdict: NOT linearizable (%s has no stuck serial witness)\n", out.FailedPending.Name)
		default:
			fmt.Println("verdict: NOT linearizable (no serial witness exists)")
		}
		fmt.Printf("search:  %d nodes visited, %d seen-set hits\n", out.Stats.Visited, out.Stats.MemoHits)
	}
	check("recorded trace, enqueue strictly before failed dequeue", "queue", badTrace)
	check("same operations, overlapping", "queue", okTrace)
	check("Fig. 9 lost wakeup, marked stuck (Definition 3)", "mre", lostWakeup+`{"k":"stuck"}`+"\n")
	check("the same trace without the marker (Definition 1)", "mre", lostWakeup)
	// Output:
	// -- recorded trace, enqueue strictly before failed dequeue --
	// history: 2 operations, 0 pending, stuck false
	// verdict: NOT linearizable (no serial witness exists)
	// search:  2 nodes visited, 0 seen-set hits
	// -- same operations, overlapping --
	// history: 2 operations, 0 pending, stuck false
	// verdict: linearizable; witness: T1:TryDequeue()=Fail T0:Enqueue(10)=ok
	// search:  3 nodes visited, 0 seen-set hits
	// -- Fig. 9 lost wakeup, marked stuck (Definition 3) --
	// history: 4 operations, 1 pending, stuck true
	// verdict: NOT linearizable (Wait() has no stuck serial witness)
	// search:  4 nodes visited, 0 seen-set hits
	// -- the same trace without the marker (Definition 1) --
	// history: 4 operations, 1 pending, stuck false
	// verdict: linearizable; witness: T1:Set()=ok T0:Wait()=ok T1:Reset()=ok T1:Set()=ok
	// search:  4 nodes visited, 0 seen-set hits
}
