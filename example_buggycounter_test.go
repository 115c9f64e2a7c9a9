package lineup_test

import (
	"fmt"

	"lineup"
	"lineup/internal/collections"
)

// Example_buggyCounter walks through the paper's Section 2.2: the two
// defective counters, what classic linearizability (Definition 1) can and
// cannot detect, and how the generalized definition with stuck histories
// (Definition 3) closes the gap.
func Example_buggyCounter() {
	type incGetter interface {
		Inc(*lineup.Thread)
		Get(*lineup.Thread) int
	}
	inc := lineup.Op{Method: "Inc", Run: func(t *lineup.Thread, obj any) string {
		obj.(incGetter).Inc(t)
		return "ok"
	}}
	get := lineup.Op{Method: "Get", Run: func(t *lineup.Thread, obj any) string {
		return fmt.Sprint(obj.(incGetter).Get(t))
	}}
	subject := func(name string, mk func(*lineup.Thread) any) *lineup.Subject {
		return &lineup.Subject{Name: name, New: mk, Ops: []lineup.Op{inc, get}}
	}
	correct := subject("Counter", func(t *lineup.Thread) any { return collections.NewCounter(t) })
	counter1 := subject("Counter1", func(t *lineup.Thread) any { return collections.NewCounter1(t) })
	counter2 := subject("Counter2", func(t *lineup.Thread) any { return collections.NewCounter2(t) })
	m := &lineup.Test{Rows: [][]lineup.Op{{inc, get}, {inc}}}
	must := func(res *lineup.Result, err error) *lineup.Result {
		if err != nil {
			panic(err)
		}
		return res
	}

	// Counter1 (Section 2.2.1): Inc without synchronization loses updates.
	res := must(lineup.Check(counter1, m, lineup.Options{}))
	fmt.Println("Counter1 (unsynchronized Inc):", res.Verdict, "-", res.Violation.Kind)
	fmt.Print(res.Violation.History)

	// Counter2 (Section 2.2.2): Get leaks the lock. Against its own serial
	// behaviors the wedging is deterministic, so the synthesized check
	// passes: Fig. 4 is about checking against a given specification, here
	// the executable counter model.
	res = must(lineup.Check(counter2, m, lineup.Options{}))
	fmt.Println("Counter2 (leaked lock) against its own serial behaviors:", res.Verdict)
	model, _ := lineup.BuiltinModel("counter")
	res = must(lineup.CheckWithMonitor(counter2, model, m, lineup.RefOptions{ClassicOnly: true}))
	fmt.Println("Counter2 against the counter model, Definition 1:", res.Verdict)
	res = must(lineup.CheckWithMonitor(counter2, model, m, lineup.RefOptions{}))
	fmt.Println("Counter2 against the counter model, Definition 3:", res.Verdict, "-", res.Violation.Kind)
	fmt.Print(res.Violation.History)
	fmt.Println("pending operation with no stuck serial witness:", res.Violation.Pending)

	// The correct counter passes, also with the blocking Dec: its stuck
	// histories have stuck serial witnesses.
	dec := lineup.Op{Method: "Dec", Run: func(t *lineup.Thread, obj any) string {
		obj.(*collections.Counter).Dec(t)
		return "ok"
	}}
	res = must(lineup.Check(correct, &lineup.Test{Rows: [][]lineup.Op{{dec}, {inc, dec}}}, lineup.Options{}))
	fmt.Printf("correct Counter with blocking Dec: %v (%d stuck serial histories)\n", res.Verdict, res.Phase1.Stuck)
	// Output:
	// Counter1 (unsynchronized Inc): FAIL - concurrent history with no serial witness
	// (call Inc() T0)
	// (call Inc() T1)
	// (ret Inc()=ok T1)
	// (ret Inc()=ok T0)
	// (call Get() T0)
	// (ret Get()=1 T0)
	// Counter2 (leaked lock) against its own serial behaviors: PASS
	// Counter2 against the counter model, Definition 1: PASS
	// Counter2 against the counter model, Definition 3: FAIL - stuck history with no stuck serial witness
	// (call Inc() T0)
	// (ret Inc()=ok T0)
	// (call Get() T0)
	// (ret Get()=1 T0)
	// (call Inc() T1)
	// #
	// pending operation with no stuck serial witness: [Inc()/* 1]
	// correct Counter with blocking Dec: PASS (3 stuck serial histories)
}
