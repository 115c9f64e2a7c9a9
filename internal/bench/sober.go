package bench

import (
	"fmt"

	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/sober"
)

// SoberResult aggregates the Section 5.7 relaxed-memory scan of one class.
type SoberResult struct {
	Subject    string
	Tests      int
	Executions int
	Violations []sober.Violation
}

// SoberRandom scans the executions of random tests of a class for
// store-buffer SC-violation patterns (Section 5.7). The paper ran the
// analogous CHESS check on the .NET classes and found no issues; the
// corrected classes here funnel all cross-thread protocols through
// monitors, volatiles and interlocked operations, so the scan comes back
// clean too.
func SoberRandom(sub *core.Subject, rows, cols, samples int, seed int64, opts core.Options) (*SoberResult, error) {
	res := &SoberResult{Subject: sub.Name}
	seen := make(map[string]bool)
	for _, m := range core.SampleTests(sub.Ops, rows, cols, samples, seed) {
		res.Tests++
		stats, err := core.ForEachExecution(sub, m, opts, true, func(out *sched.Outcome) bool {
			for _, v := range sober.Analyze(out.Trace) {
				key := fmt.Sprintf("%s|%s", v.First.WriteLoc, v.First.ReadLoc)
				if !seen[key] {
					seen[key] = true
					res.Violations = append(res.Violations, v)
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		res.Executions += stats.Executions
	}
	return res, nil
}
