package core_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/telemetry"
)

// requireWellFormed asserts the matrix invariants every mutation must
// preserve.
func requireWellFormed(t *testing.T, m *core.Test, sub *core.Subject, maxRows, maxCols int) {
	t.Helper()
	if len(m.Rows) < 1 || len(m.Rows) > maxRows {
		t.Fatalf("mutant has %d threads, want 1..%d", len(m.Rows), maxRows)
	}
	for r, row := range m.Rows {
		if len(row) < 1 || len(row) > maxCols {
			t.Fatalf("thread %d has %d invocations, want 1..%d", r, len(row), maxCols)
		}
		for _, op := range row {
			if _, ok := sub.FindOp(op.Name()); !ok {
				t.Fatalf("mutant invocation %s not in universe", op.Name())
			}
		}
	}
}

// TestMutatorWellFormed: long mutation chains never leave the space of
// well-formed matrices.
func TestMutatorWellFormed(t *testing.T) {
	sub := counterSubject()
	mu := core.NewMutator(sub.Ops, 3, 4, rand.New(rand.NewSource(11)))
	m := &core.Test{Rows: [][]core.Op{{sub.Ops[0]}}}
	for i := 0; i < 500; i++ {
		m = mu.Mutate(m)
		requireWellFormed(t, m, sub, 3, 4)
	}
}

// TestMutatorDeterministic: the same seed yields the same mutation chain.
func TestMutatorDeterministic(t *testing.T) {
	sub := counterSubject()
	chain := func(seed int64) []string {
		mu := core.NewMutator(sub.Ops, 3, 3, rand.New(rand.NewSource(seed)))
		m := &core.Test{Rows: [][]core.Op{{sub.Ops[0]}, {sub.Ops[1]}}}
		var out []string
		for i := 0; i < 100; i++ {
			m = mu.Mutate(m)
			out = append(out, m.String())
		}
		return out
	}
	a, b := chain(5), chain(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutation chains diverge at step %d:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestGenerateFindsCounterBug: coverage-guided generation rediscovers the
// Counter1 lost update from the op universe alone and echoes its seed.
func TestGenerateFindsCounterBug(t *testing.T) {
	sched.RequireNoLeaks(t)
	tel := telemetry.New()
	res, err := core.Generate(counter1Subject(), core.GenOptions{
		Options: core.Options{Telemetry: tel},
		Seed:    1,
		Budget:  200,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if res.Failed == nil {
		t.Fatalf("generation missed the Counter1 bug in %d tests", res.Tests)
	}
	if res.Seed != 1 {
		t.Fatalf("seed not echoed: got %d", res.Seed)
	}
	if res.TestsToFailure <= 0 || res.TestsToFailure > res.Tests {
		t.Fatalf("TestsToFailure %d out of range (tests %d)", res.TestsToFailure, res.Tests)
	}
	if res.CoveragePairs == 0 || res.CoverageHists == 0 {
		t.Fatalf("no coverage accumulated: %d pairs, %d hists", res.CoveragePairs, res.CoverageHists)
	}
	snap := tel.Snapshot()
	if snap["gen_tests"] != int64(res.Tests) || snap["gen_cov_pairs"] != int64(res.CoveragePairs) {
		t.Fatalf("telemetry disagrees with result: %+v vs %+v", snap, res)
	}
}

// TestGenerateDeterministic: same seed, same subject, same options — the
// results agree and the persisted corpora are bit-identical.
func TestGenerateDeterministic(t *testing.T) {
	sched.RequireNoLeaks(t)
	run := func(dir string) *core.GenResult {
		res, err := core.Generate(counterSubject(), core.GenOptions{
			Seed:       42,
			Budget:     60,
			MaxThreads: 2,
			MaxOps:     2,
			CorpusDir:  dir,
			KeepGoing:  true,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return res
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	r1, r2 := run(dir1), run(dir2)
	if r1.Tests != r2.Tests || r1.Accepted != r2.Accepted || r1.CorpusSize != r2.CorpusSize ||
		r1.CoveragePairs != r2.CoveragePairs || r1.CoverageHists != r2.CoverageHists {
		t.Fatalf("same-seed runs disagree: %+v vs %+v", r1, r2)
	}
	ents1, err := os.ReadDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	ents2, err := os.ReadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents1) != len(ents2) {
		t.Fatalf("corpus sizes differ: %d vs %d files", len(ents1), len(ents2))
	}
	if len(ents1) != r1.CorpusSize+1 { // + manifest.json
		t.Fatalf("corpus dir has %d files, want %d entries + manifest", len(ents1), r1.CorpusSize)
	}
	for i := range ents1 {
		if ents1[i].Name() != ents2[i].Name() {
			t.Fatalf("corpus file names differ: %s vs %s", ents1[i].Name(), ents2[i].Name())
		}
		b1, err := os.ReadFile(filepath.Join(dir1, ents1[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(dir2, ents2[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("corpus file %s differs between same-seed runs", ents1[i].Name())
		}
	}
}

// TestGenerateDifferentSeedsDiverge guards against the stream accidentally
// ignoring the seed.
func TestGenerateDifferentSeedsDiverge(t *testing.T) {
	sched.RequireNoLeaks(t)
	run := func(seed int64) *core.GenResult {
		res, err := core.Generate(counterSubject(), core.GenOptions{Seed: seed, Budget: 60, MaxThreads: 2, MaxOps: 2, KeepGoing: true})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return res
	}
	r1, r2 := run(1), run(2)
	if r1.Accepted == r2.Accepted && r1.CoverageHists == r2.CoverageHists && r1.CorpusSize == r2.CorpusSize {
		t.Logf("warning: seeds 1 and 2 produced identical totals %+v — suspicious but possible", r1)
	}
	if r1.Seed == r2.Seed {
		t.Fatal("seeds not propagated")
	}
}

// TestAutoCheckCoverageGuided: the AutoCheck facade delegates to Generate.
func TestAutoCheckCoverageGuided(t *testing.T) {
	sched.RequireNoLeaks(t)
	res, err := core.AutoCheck(counter1Subject(), core.AutoOptions{
		MaxN:           3,
		MaxTests:       200,
		CoverageGuided: true,
		Seed:           1,
	})
	if err != nil {
		t.Fatalf("AutoCheck: %v", err)
	}
	if res.Failed == nil {
		t.Fatalf("coverage-guided AutoCheck missed the Counter1 bug in %d tests", res.Tests)
	}
	if res.Exhausted {
		t.Fatal("Exhausted set on a failing run")
	}
}

// TestTestFromNames: a test's written form ({init, rows, final} of display
// names — the corpus entry, the dist job file and manifest) reads back
// name-only, is rebuilt against the subject's universe, writes out to the
// same bytes, and unknown names are rejected in every section.
func TestTestFromNames(t *testing.T) {
	sub := counterSubject()
	const written = `{"init":["Inc()"],"rows":[["Inc()","Get()"],["Dec()"]],"final":["Get()"]}`
	var names core.Test
	if err := json.Unmarshal([]byte(written), &names); err != nil {
		t.Fatal(err)
	}
	m, err := core.TestFromNames(sub, &names)
	if err != nil {
		t.Fatalf("TestFromNames: %v", err)
	}
	if len(m.Rows) != 2 || m.Rows[0][1].Name() != "Get()" || m.Rows[1][0].Name() != "Dec()" ||
		len(m.Init) != 1 || len(m.Final) != 1 || m.Rows[0][1].Run == nil || m.Init[0].Run == nil || m.Final[0].Run == nil {
		t.Fatalf("round-trip mangled the test:\n%s", m)
	}
	if again, err := json.Marshal(m); err != nil || string(again) != written {
		t.Fatalf("rebuilt test writes %s (%v), want %s", again, err, written)
	}
	for _, bad := range []string{
		`{"rows":[["Frobnicate()"]]}`,
		`{"init":["Frobnicate()"],"rows":[["Inc()"]]}`,
		`{"rows":[["Inc()"]],"final":["Frobnicate()"]}`,
	} {
		var names core.Test
		if err := json.Unmarshal([]byte(bad), &names); err != nil {
			t.Fatal(err)
		}
		if _, err := core.TestFromNames(sub, &names); err == nil {
			t.Errorf("unknown invocation accepted: %s", bad)
		}
	}
}
