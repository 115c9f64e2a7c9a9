package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"lineup/internal/telemetry"
)

// Mutator derives new test matrices from existing ones by structural
// mutation over a fixed invocation universe. Every mutation preserves
// well-formedness: between 1 and maxRows threads, between 1 and maxCols
// invocations per thread, every cell drawn from the universe. All
// randomness flows through the single rng handed to NewMutator, so a fixed
// seed yields a fixed mutation sequence.
type Mutator struct {
	universe []Op
	maxRows  int
	maxCols  int
	rng      *rand.Rand
}

// NewMutator creates a mutator over the given universe and shape caps
// (values < 1 become 1).
func NewMutator(universe []Op, maxRows, maxCols int, rng *rand.Rand) *Mutator {
	if maxRows < 1 {
		maxRows = 1
	}
	if maxCols < 1 {
		maxCols = 1
	}
	return &Mutator{universe: universe, maxRows: maxRows, maxCols: maxCols, rng: rng}
}

// randOp draws a uniform invocation from the universe.
func (mu *Mutator) randOp() Op {
	return mu.universe[mu.rng.Intn(len(mu.universe))]
}

// pos picks a uniform (row, col) cell of the matrix.
func (mu *Mutator) pos(m *Test) (r, c int) {
	n := 0
	for _, row := range m.Rows {
		n += len(row)
	}
	k := mu.rng.Intn(n)
	for i, row := range m.Rows {
		if k < len(row) {
			return i, k
		}
		k -= len(row)
	}
	panic("unreachable")
}

// Mutate returns a well-formed mutant of m (m itself is not modified). One
// of seven mutations is applied: replace an invocation, swap two
// invocations, insert or delete an invocation, perturb an invocation's
// arguments (same method, different arguments), or add or remove a thread.
// Mutations whose precondition fails (e.g. deleting from a one-invocation
// thread) fall through to another attempt; after a bounded number of
// attempts the mutant is returned possibly unchanged, which is harmless
// (the duplicate brings no new coverage and is simply not admitted).
func (mu *Mutator) Mutate(m *Test) *Test {
	c := m.Clone()
	for tries := 0; tries < 16; tries++ {
		if mu.mutateOnce(c) {
			return c
		}
	}
	return c
}

func (mu *Mutator) mutateOnce(c *Test) bool {
	switch mu.rng.Intn(7) {
	case 0: // replace an invocation
		r, i := mu.pos(c)
		c.Rows[r][i] = mu.randOp()
		return true
	case 1: // swap two invocations (possibly across threads)
		r1, i1 := mu.pos(c)
		r2, i2 := mu.pos(c)
		c.Rows[r1][i1], c.Rows[r2][i2] = c.Rows[r2][i2], c.Rows[r1][i1]
		return true
	case 2: // insert an invocation
		r := mu.rng.Intn(len(c.Rows))
		row := c.Rows[r]
		if len(row) >= mu.maxCols {
			return false
		}
		i := mu.rng.Intn(len(row) + 1)
		row = append(row[:i:i], append([]Op{mu.randOp()}, row[i:]...)...)
		c.Rows[r] = row
		return true
	case 3: // delete an invocation
		r, i := mu.pos(c)
		if len(c.Rows[r]) <= 1 {
			return false
		}
		c.Rows[r] = append(c.Rows[r][:i:i], c.Rows[r][i+1:]...)
		return true
	case 4: // perturb arguments: same method, different arguments
		r, i := mu.pos(c)
		cur := c.Rows[r][i]
		var alts []Op
		for _, op := range mu.universe {
			if op.Method == cur.Method && op.Args != cur.Args {
				alts = append(alts, op)
			}
		}
		if len(alts) == 0 {
			return false
		}
		c.Rows[r][i] = alts[mu.rng.Intn(len(alts))]
		return true
	case 5: // add a thread
		if len(c.Rows) >= mu.maxRows {
			return false
		}
		c.Rows = append(c.Rows, []Op{mu.randOp()})
		return true
	default: // remove a thread
		if len(c.Rows) <= 1 {
			return false
		}
		r := mu.rng.Intn(len(c.Rows))
		c.Rows = append(c.Rows[:r:r], c.Rows[r+1:]...)
		return true
	}
}

// GenOptions configures Generate.
type GenOptions struct {
	Options
	// Seed drives every random decision of the run (parent selection and
	// mutation). Two runs with the same seed, subject, and options produce
	// bit-identical corpora and identical results.
	Seed int64
	// Budget is the number of tests to check, including the seed corpus
	// (default 200).
	Budget int
	// MaxThreads and MaxOps cap the mutated matrix shape (default 3×3, the
	// shape the paper's random evaluation uses).
	MaxThreads, MaxOps int
	// CorpusDir, when non-empty, receives the final corpus: one
	// corpus-NNNNNN.json per admitted test plus a manifest.json recording
	// the seed and totals. The directory is created if needed.
	CorpusDir string
	// KeepGoing continues past failing tests (measuring coverage growth);
	// by default Generate stops at the first violation.
	KeepGoing bool
	// Progress, when non-nil, is called after every checked test with the
	// count so far and the budget.
	Progress func(done, total int)
}

// GenResult summarizes a Generate run.
type GenResult struct {
	// Failed is the first failing check, nil if no violation was found.
	Failed *Result
	// Seed echoes the run's seed so that violation reports are reproducible.
	Seed int64
	// Tests is the number of tests checked; TestsToFailure is the count up
	// to and including the first failing one (0 when none failed).
	Tests          int
	TestsToFailure int
	// Accepted is the number of mutants admitted for new coverage (the seed
	// corpus is admitted unconditionally); CorpusSize the final corpus size.
	Accepted   int
	CorpusSize int
	// CoveragePairs and CoverageHists are the final coverage totals: distinct
	// (MemKind, location) footprint pairs and distinct canonical phase-2
	// histories.
	CoveragePairs int
	CoverageHists int
	// Exhausted reports that the budget ran out without a violation.
	Exhausted bool
}

// Generate is coverage-guided test generation: starting from a seed corpus
// of minimal matrices over the subject's invocation universe, it repeatedly
// mutates a random corpus member, checks the mutant, and admits it to the
// corpus iff the check observed a new (MemKind, location) footprint pair or
// a new canonical phase-2 history. The feedback steers the search toward
// tests that exercise new synchronization structure — contended code paths
// (a CAS retry, an elimination slot) that fixed-shape random sampling
// reaches only by luck.
//
// Like every Line-Up mode it is complete (a FAIL proves the subject is not
// linearizable with respect to any deterministic sequential specification)
// but not sound; the budget bounds the search.
func Generate(sub *Subject, opts GenOptions) (*GenResult, error) {
	if len(sub.Ops) == 0 {
		return nil, fmt.Errorf("lineup: Generate on %s: empty invocation universe", sub.Name)
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = 200
	}
	maxRows := opts.MaxThreads
	if maxRows <= 0 {
		maxRows = 3
	}
	maxCols := opts.MaxOps
	if maxCols <= 0 {
		maxCols = 3
	}
	cov := NewCoverage()
	checkOpts := opts.Options
	checkOpts.Coverage = cov
	tel := opts.Telemetry

	rng := rand.New(rand.NewSource(opts.Seed))
	mut := NewMutator(sub.Ops, maxRows, maxCols, rng)
	res := &GenResult{Seed: opts.Seed}

	// The seed corpus: every invocation once against every other (2×1
	// matrices), which puts each pair of operations in conflict at least
	// once, plus one random full-shape matrix for early structural variety.
	var corpus []*Test
	for _, a := range sub.Ops {
		for _, b := range sub.Ops {
			corpus = append(corpus, &Test{Rows: [][]Op{{a}, {b}}})
		}
	}
	seedRandom := &Test{}
	for r := 0; r < maxRows; r++ {
		row := make([]Op, maxCols)
		for c := range row {
			row[c] = mut.randOp()
		}
		seedRandom.Rows = append(seedRandom.Rows, row)
	}
	corpus = append(corpus, seedRandom)

	// check runs one test, updates totals, and reports whether to stop.
	check := func(m *Test) (stop bool, admitted bool, err error) {
		beforePairs, beforeHists := cov.Pairs(), cov.Hists()
		r, err := Check(sub, m, checkOpts)
		if err != nil {
			return true, false, fmt.Errorf("lineup: Generate on %s: %w", sub.Name, err)
		}
		res.Tests++
		tel.Add(telemetry.GenTests, 1)
		if opts.Progress != nil {
			opts.Progress(res.Tests, budget)
		}
		if r.Verdict == Fail && res.Failed == nil {
			res.Failed = r
			res.TestsToFailure = res.Tests
			if !opts.KeepGoing {
				return true, false, nil
			}
		}
		return false, cov.Pairs() > beforePairs || cov.Hists() > beforeHists, nil
	}

	stopped := false
	// Seed tests are admitted regardless of coverage: they define the
	// baseline the feedback is measured against.
	for _, m := range corpus {
		if res.Tests >= budget {
			break
		}
		stop, _, err := check(m)
		if err != nil {
			return nil, err
		}
		if stop {
			stopped = true
			break
		}
	}
	for !stopped && res.Tests < budget {
		parent := corpus[rng.Intn(len(corpus))]
		mutant := mut.Mutate(parent)
		stop, admitted, err := check(mutant)
		if err != nil {
			return nil, err
		}
		if admitted {
			corpus = append(corpus, mutant)
			res.Accepted++
			tel.Add(telemetry.GenAccepted, 1)
		}
		stopped = stop
	}

	res.CorpusSize = len(corpus)
	res.CoveragePairs = cov.Pairs()
	res.CoverageHists = cov.Hists()
	res.Exhausted = res.Failed == nil
	tel.Max(telemetry.GenCorpus, int64(res.CorpusSize))
	tel.Max(telemetry.GenCovPairs, int64(res.CoveragePairs))
	tel.Max(telemetry.GenCovHists, int64(res.CoverageHists))
	if opts.CorpusDir != "" {
		if err := writeCorpus(opts.CorpusDir, sub, opts.Seed, corpus, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// corpusManifest is the manifest.json schema of a persisted corpus.
type corpusManifest struct {
	Subject       string `json:"subject"`
	Seed          int64  `json:"seed"`
	Tests         int    `json:"tests"`
	CorpusSize    int    `json:"corpus_size"`
	CoveragePairs int    `json:"coverage_pairs"`
	CoverageHists int    `json:"coverage_hists"`
}

// writeCorpus persists the corpus deterministically: entry files are named
// by corpus index and hold the test's written form, which depends only on the
// test, so two same-seed runs write bit-identical directories.
func writeCorpus(dir string, sub *Subject, seed int64, corpus []*Test, res *GenResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("lineup: corpus dir: %w", err)
	}
	for i, m := range corpus {
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("corpus-%06d.json", i))
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("lineup: corpus entry: %w", err)
		}
	}
	man := corpusManifest{
		Subject:       sub.Name,
		Seed:          seed,
		Tests:         res.Tests,
		CorpusSize:    res.CorpusSize,
		CoveragePairs: res.CoveragePairs,
		CoverageHists: res.CoverageHists,
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}
