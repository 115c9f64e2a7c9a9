// Dotnetsuite runs the paper's evaluation methodology (Section 5.1) over
// the bundled class suite: for every class — corrected and CTP-like "(Pre)"
// variants — it checks a random sample of test matrices and reports the
// verdicts, the phase statistics, and the minimized first failure, in the
// shape of Table 2.
//
// Run with: go run ./examples/dotnetsuite [-samples N]
package main

import (
	"flag"
	"fmt"
	"log"

	"lineup"
	"lineup/internal/bench"
)

func main() {
	samples := flag.Int("samples", 15, "random 3x3 tests per class (paper: 100)")
	flag.Parse()

	fmt.Printf("%-26s %6s %6s %9s %7s  %s\n", "class", "pass", "fail", "ser.hist", "stuck", "first failing op set")
	for _, e := range bench.Registry() {
		for _, sub := range []*lineup.Subject{e.Subject, e.Pre} {
			if sub == nil {
				continue
			}
			sum, err := lineup.RandomCheck(sub, nil, lineup.RandomOptions{
				Rows: 3, Cols: 3, Samples: *samples, Seed: 1,
				Options: lineup.Options{PreemptionBound: e.Bound},
			})
			if err != nil {
				log.Fatal(err)
			}
			firstFail := ""
			if sum.FirstFailure != nil {
				min, _, err := lineup.Shrink(sub, sum.FirstFailure.Test, lineup.Options{PreemptionBound: e.Bound})
				if err != nil {
					log.Fatal(err)
				}
				threads, ops := min.Dim()
				firstFail = fmt.Sprintf("%dx%d:", threads, ops)
				for _, row := range min.Rows {
					firstFail += " {"
					for i, op := range row {
						if i > 0 {
							firstFail += " "
						}
						firstFail += op.Name()
					}
					firstFail += "}"
				}
			}
			fmt.Printf("%-26s %6d %6d %9.1f %7d  %s\n",
				sub.Name, sum.Passed, sum.Failed, sum.SerialHistAvg, sum.StuckTests, firstFail)
		}
	}
	fmt.Println("\nFailures on (Pre) classes are the seeded CTP bugs (root causes A..G);")
	fmt.Println("failures on ConcurrentBag, BlockingCollection and Barrier are the")
	fmt.Println("intentional behaviors H..L that the .NET developers documented")
	fmt.Println("instead of fixing (Sections 5.2.2 and 5.3).")
}
