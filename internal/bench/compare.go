package bench

import (
	"fmt"
	"sort"

	"lineup/internal/atomicity"
	"lineup/internal/core"
	"lineup/internal/race"
	"lineup/internal/sched"
)

// CompareResult aggregates the Section 5.6 comparison for one class: what a
// happens-before race detector and a conflict-serializability monitor
// report on the same executions that Line-Up's phase 2 explores.
type CompareResult struct {
	Subject string
	Tests   int
	// Races are the distinct data races found (all benign on the corrected
	// classes, mirroring the paper's finding).
	Races []race.Race
	// AtomicityWarnings counts executions that were not
	// conflict-serializable.
	AtomicityWarnings int
	// AtomicityTests counts tests with at least one warning.
	AtomicityTests int
	// WarningSamples holds a few representative serializability warnings.
	WarningSamples []string
	// LineUpFailures counts the same tests' Line-Up verdicts, for contrast.
	LineUpFailures int
	Executions     int
}

// CompareRandom runs the comparison checkers over a random sample of tests
// (the same sampling scheme as RandomCheck).
func CompareRandom(sub *core.Subject, rows, cols, samples int, seed int64, opts core.Options) (*CompareResult, error) {
	res := &CompareResult{Subject: sub.Name}
	det := race.NewDetector()
	warnSeen := make(map[string]bool)
	for _, m := range core.SampleTests(sub.Ops, rows, cols, samples, seed) {
		res.Tests++
		testWarned := false
		stats, err := core.ForEachExecution(sub, m, opts, true, func(out *sched.Outcome) bool {
			det.Analyze(out.Trace)
			if w := atomicity.Analyze(out.Trace); w != nil {
				res.AtomicityWarnings++
				testWarned = true
				key := fmt.Sprint(w.Locs)
				if !warnSeen[key] && len(res.WarningSamples) < 8 {
					warnSeen[key] = true
					res.WarningSamples = append(res.WarningSamples, w.String())
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		res.Executions += stats.Executions
		if testWarned {
			res.AtomicityTests++
		}
		lr, err := core.Check(sub, m, opts)
		if err != nil {
			return nil, err
		}
		if lr.Verdict == core.Fail {
			res.LineUpFailures++
		}
	}
	res.Races = det.Races()
	sort.Slice(res.Races, func(i, j int) bool { return res.Races[i].Loc < res.Races[j].Loc })
	return res, nil
}
