package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lineup/internal/telemetry"
)

// AutoOptions configures AutoCheck. Because AutoCheck does not terminate on
// correct implementations (footnote 3 of the paper), callers bound it.
type AutoOptions struct {
	Options
	// MaxN bounds the matrix dimension n (Fig. 6 increments n forever).
	MaxN int
	// MaxTests bounds the total number of tests checked across all n.
	MaxTests int
}

// AutoResult is the outcome of a bounded AutoCheck run.
type AutoResult struct {
	// Failed is the first failing check, nil if every test passed.
	Failed *Result
	// Tests is the number of tests checked.
	Tests int
	// Exhausted reports whether the bounds were hit without finding a
	// violation (so the implementation may still be incorrect).
	Exhausted bool
}

// AutoCheck implements the algorithm AutoCheck(X) of Fig. 6, bounded by
// opts.MaxN and opts.MaxTests: for n = 1, 2, ... it checks every n×n test
// whose entries are drawn from the first n representative invocations of
// the subject, returning at the first failure.
func AutoCheck(sub *Subject, opts AutoOptions) (*AutoResult, error) {
	res := &AutoResult{}
	maxN := opts.MaxN
	if maxN <= 0 {
		maxN = 2
	}
	maxTests := opts.MaxTests
	if maxTests <= 0 {
		maxTests = 10000
	}
	for n := 1; n <= maxN; n++ {
		universe := sub.Ops
		if n < len(universe) {
			universe = universe[:n]
		}
		stop, err := enumerateMatrices(universe, n, n, func(m *Test) (bool, error) {
			if res.Tests >= maxTests {
				res.Exhausted = true
				return false, nil
			}
			res.Tests++
			r, err := Check(sub, m, opts.Options)
			if err != nil {
				return false, err
			}
			if r.Verdict == Fail {
				res.Failed = r
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		if stop {
			return res, nil
		}
	}
	res.Exhausted = res.Failed == nil
	return res, nil
}

// enumerateMatrices calls visit for every rows×cols matrix with entries in
// universe, in lexicographic order. visit returns (continue, error); the
// function reports whether enumeration was stopped early.
func enumerateMatrices(universe []Op, rows, cols int, visit func(*Test) (bool, error)) (stopped bool, err error) {
	cells := rows * cols
	idx := make([]int, cells)
	for {
		m := &Test{}
		for r := 0; r < rows; r++ {
			row := make([]Op, cols)
			for c := 0; c < cols; c++ {
				row[c] = universe[idx[r*cols+c]]
			}
			m.Rows = append(m.Rows, row)
		}
		cont, verr := visit(m)
		if verr != nil {
			return true, verr
		}
		if !cont {
			return true, nil
		}
		// Advance the odometer.
		i := cells - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(universe) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return false, nil
		}
	}
}

// RandomOptions configures RandomCheck.
type RandomOptions struct {
	Options
	// Rows and Cols give the test matrix dimension (the paper's evaluation
	// uses 3×3).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Samples is the number of random tests (the paper uses 100).
	Samples int `json:"samples"`
	// Seed makes the sample reproducible.
	Seed int64 `json:"seed"`
	// StopAtFirstFailure ends the run at the first failing test.
	StopAtFirstFailure bool `json:"stop_at_first_failure,omitempty"`
	// Init and Final are fixed initial/final invocation sequences attached
	// to every sampled test (Section 4.3).
	Init  []Op `json:"init,omitempty"`
	Final []Op `json:"final,omitempty"`
	// Checkpoint, when non-nil, receives the accumulated checkpoint state
	// after every completed test (typically to RandomCheckpoint.Save it).
	// Calls are serialized under an internal lock; a checkpoint error aborts
	// the run.
	Checkpoint func(*RandomCheckpoint) error `json:"-"`
	// Resume, when non-nil, restores the results recorded in a previously
	// saved checkpoint and checks only the remaining tests. The checkpoint's
	// sampling configuration must match this run's; the test sequence is
	// regenerated from the shared seed, so restored and freshly checked
	// results compose into exactly the sequence an uninterrupted run
	// produces.
	Resume *RandomCheckpoint `json:"-"`
}

// RandomSummary aggregates a RandomCheck run; its fields correspond to the
// phase-1/phase-2 columns of Table 2.
type RandomSummary struct {
	Subject *Subject
	Passed  int
	Failed  int
	// FirstFailure is the first failing result in sample order (nil if all
	// passed).
	FirstFailure *Result
	// Results holds the per-test results in sample order (may contain nils
	// after an early stop).
	Results []*Result

	// Aggregated phase statistics.
	SerialHistAvg  float64
	SerialHistMax  int
	Phase1TimeAvg  time.Duration
	Phase1TimeMax  time.Duration
	Phase2PassAvg  time.Duration // avg phase-2 time of passing tests
	Phase2FailAvg  time.Duration // avg phase-2 time of failing tests
	StuckTests     int           // tests that exhibited at least one stuck history
	TotalDuration  time.Duration
	PreemptionUsed int
}

// SampleTests draws n tests of rows×cols invocations uniformly from universe
// with the given seed, row by row — the sample of RandomCheck (Fig. 8), which
// the Section 5.6 and 5.7 scans draw too.
func SampleTests(universe []Op, rows, cols, n int, seed int64) []*Test {
	rng := rand.New(rand.NewSource(seed))
	tests := make([]*Test, n)
	for k := range tests {
		m := &Test{}
		for r := 0; r < rows; r++ {
			row := make([]Op, cols)
			for c := range row {
				row[c] = universe[rng.Intn(len(universe))]
			}
			m.Rows = append(m.Rows, row)
		}
		tests[k] = m
	}
	return tests
}

// RandomCheck implements RandomCheck(X, I, i, j, n) of Fig. 8: it draws a
// uniform random sample of tests from the i×j matrices over the invocation
// universe and checks each. Like Check it is complete (any FAIL is a true
// violation) but not sound (bugs may be missed).
//
// The tests are independent, so they are checked side by side (the
// "embarrassingly parallel" distribution of Section 4.3): Options.Workers,
// resolved as on a check of its own, is split into min(Workers, Samples) tests
// at a time, each exploring with Workers ÷ that (at least one).
func RandomCheck(sub *Subject, universe []Op, opts RandomOptions) (*RandomSummary, error) {
	if len(universe) == 0 {
		universe = sub.Ops
	}
	if err := opts.validate(true, false); err != nil {
		return nil, err
	}
	if opts.Rows <= 0 {
		opts.Rows = 3
	}
	if opts.Cols <= 0 {
		opts.Cols = 3
	}
	if opts.Samples <= 0 {
		opts.Samples = 100
	}
	samples := opts.Samples
	workers := opts.exploreWorkers()
	side := min(workers, samples)
	tests := SampleTests(universe, opts.Rows, opts.Cols, samples, opts.Seed)
	for _, m := range tests {
		m.Init, m.Final = opts.Init, opts.Final
	}
	check := opts.Options
	check.Workers = workers / side

	sum := &RandomSummary{Subject: sub, Results: make([]*Result, samples), PreemptionUsed: opts.bound()}
	cp := &RandomCheckpoint{Version: randomCheckpointVersion, Subject: sub.Name, Options: opts}
	done := make([]bool, samples)
	if opts.Resume != nil {
		if err := opts.Resume.validate(cp); err != nil {
			return nil, err
		}
		for _, t := range opts.Resume.Tests {
			if t == nil || done[t.Index] {
				continue
			}
			done[t.Index] = true
			opts.Telemetry.Add(telemetry.TestsDone, 1)
			sum.Results[t.Index] = t.restore(sub, tests[t.Index])
			cp.Tests = append(cp.Tests, t)
		}
	}
	// finish records a completed test under the workers' lock and forwards
	// the checkpoint; its error aborts the run like a check error.
	finish := func(k int, r *Result) error {
		sum.Results[k] = r
		done[k] = true
		opts.Telemetry.Add(telemetry.TestsDone, 1)
		if opts.Checkpoint == nil {
			return nil
		}
		cp.record(k, r)
		return opts.Checkpoint(cp)
	}
	stopAt := func(k int) bool {
		return opts.StopAtFirstFailure && sum.Results[k].Verdict == Fail
	}
	start := time.Now()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		stop     bool
		firstErr error
	)
	// work takes tests in sample order until none is left, a check or a
	// checkpoint fails, or stopAt holds of a test, restored or checked just now.
	work := func() {
		for {
			mu.Lock()
			for next < samples && done[next] {
				stop = stop || stopAt(next)
				next++
			}
			if stop || next >= samples || firstErr != nil {
				mu.Unlock()
				return
			}
			k := next
			next++
			mu.Unlock()
			r, err := Check(sub, tests[k], check)
			mu.Lock()
			if err == nil {
				err = finish(k, r)
				stop = stop || stopAt(k)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	// The caller's goroutine is the first worker, so a run with one worker
	// starts no goroutine (DetectLeaks counts them process-wide).
	for w := 1; w < side; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("lineup: RandomCheck on %s: %w", sub.Name, firstErr)
	}
	sum.TotalDuration = time.Since(start)
	aggregate(sum)
	// A first failure restored from a checkpoint carries no violation
	// details (they are not serialized); Check is deterministic, so
	// re-running that one test regenerates the identical report.
	if f := sum.FirstFailure; f != nil && f.Violation == nil {
		r, err := Check(sub, f.Test, check)
		if err != nil {
			return nil, fmt.Errorf("lineup: RandomCheck on %s: regenerating first failure: %w", sub.Name, err)
		}
		r.Phase1, r.Phase2, r.Failures = f.Phase1, f.Phase2, f.Failures
		for k := range sum.Results {
			if sum.Results[k] == f {
				sum.Results[k] = r
			}
		}
		sum.FirstFailure = r
	}
	return sum, nil
}

func aggregate(sum *RandomSummary) {
	var (
		serialTotal, checked            int
		p1Total, p2PassTotal, p2FailTot time.Duration
		passN, failN                    int
	)
	for _, r := range sum.Results {
		if r == nil {
			continue
		}
		checked++
		nHist := r.Phase1.Histories + r.Phase1.Stuck
		serialTotal += nHist
		if nHist > sum.SerialHistMax {
			sum.SerialHistMax = nHist
		}
		p1Total += r.Phase1.Duration
		if r.Phase1.Duration > sum.Phase1TimeMax {
			sum.Phase1TimeMax = r.Phase1.Duration
		}
		if r.Phase1.Stuck > 0 || r.Phase2.Stuck > 0 {
			sum.StuckTests++
		}
		if r.Verdict == Fail {
			sum.Failed++
			failN++
			p2FailTot += r.Phase2.Duration
			if sum.FirstFailure == nil {
				sum.FirstFailure = r
			}
		} else {
			sum.Passed++
			passN++
			p2PassTotal += r.Phase2.Duration
		}
	}
	if checked > 0 {
		sum.SerialHistAvg = float64(serialTotal) / float64(checked)
		sum.Phase1TimeAvg = p1Total / time.Duration(checked)
	}
	if passN > 0 {
		sum.Phase2PassAvg = p2PassTotal / time.Duration(passN)
	}
	if failN > 0 {
		sum.Phase2FailAvg = p2FailTot / time.Duration(failN)
	}
}
