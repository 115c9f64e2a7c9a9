package lineup_test

import (
	"bytes"
	"fmt"

	"lineup"
	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/obsfile"
)

// Example_regression is the observation-file workflow of Section 4.2 as a
// library: synthesize the specification of a test once on a known-good
// build, persist it as an observation file, and from then on re-verify only
// phase 2 against the recorded file — catching a regression (here: swapping
// in the CTP-like queue) without re-deriving the specification.
func Example_regression() {
	const test = "Enqueue(10) TryDequeue() / Count()"
	good, _, _ := bench.Find("ConcurrentQueue")
	bad, _, _ := bench.Find("ConcurrentQueue(Pre)")
	m, err := bench.ParseTest(good, test)
	if err != nil {
		panic(err)
	}

	// Record: phase 1 on the good build, persisted as an observation file.
	spec, stats, err := core.SynthesizeSpec(good, m, lineup.Options{})
	if err != nil {
		panic(err)
	}
	var file bytes.Buffer
	if err := obsfile.Write(&file, spec); err != nil {
		panic(err)
	}
	fmt.Printf("recorded %d serial histories (%d serial executions):\n%s",
		stats.Histories+stats.Stuck, stats.Executions, file.String())

	// Verify: parse the file back and run phase 2 only, against both
	// builds. ParseTest resolves the same ops for the (Pre) variant because
	// the two share one invocation vocabulary.
	parsed, err := obsfile.Parse(&file)
	if err != nil {
		panic(err)
	}
	reloaded := parsed.ToSpec()
	for _, sub := range []*lineup.Subject{good, bad} {
		m, err := bench.ParseTest(sub, test)
		if err != nil {
			panic(err)
		}
		res, err := core.CheckAgainstSpec(sub, m, reloaded, lineup.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s -> %v (phase 2: %d histories over %d schedules)\n",
			sub.Name, res.Verdict, res.Phase2.Histories, res.Phase2.Executions)
		if res.Violation != nil {
			fmt.Println(res.Violation.Kind)
			fmt.Print(res.Violation.History)
		}
	}
	// Output:
	// recorded 3 serial histories (3 serial executions):
	// <observationset>
	//   <observation>
	//     <thread id="A">1 2</thread>
	//     <thread id="B">3</thread>
	//     <op id="1" name="Enqueue">value="10" result="ok"</op>
	//     <op id="2" name="TryDequeue">result="10"</op>
	//     <op id="3" name="Count">result="0"</op>
	//     <history>1[ ]1 2[ ]2 3[ ]3</history>
	//     <history>3[ ]3 1[ ]1 2[ ]2</history>
	//   </observation>
	//   <observation>
	//     <thread id="A">1 2</thread>
	//     <thread id="B">3</thread>
	//     <op id="1" name="Enqueue">value="10" result="ok"</op>
	//     <op id="2" name="TryDequeue">result="10"</op>
	//     <op id="3" name="Count">result="1"</op>
	//     <history>1[ ]1 3[ ]3 2[ ]2</history>
	//   </observation>
	// </observationset>
	// ConcurrentQueue -> PASS (phase 2: 24 histories over 98 schedules)
	// ConcurrentQueue(Pre) -> FAIL (phase 2: 13 histories over 23 schedules)
	// concurrent history with no serial witness
	// (call Enqueue(10) T0)
	// (call Count() T1)
	// (ret Enqueue(10)=ok T0)
	// (call TryDequeue() T0)
	// (ret TryDequeue()=10 T0)
	// (ret Count()=-1 T1)
}
