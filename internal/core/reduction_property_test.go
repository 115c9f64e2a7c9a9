package core_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lineup/internal/bench"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// reductionSubjects is a cheap-to-explore cross-section of the Table-1
// registry (correct and (Pre) variants over internal/collections and
// internal/buggy, including the wait-set classes) plus the racy register.
func reductionSubjects() []*core.Subject {
	var subs []*core.Subject
	want := map[string]bool{
		"Lazy": true, "Lazy(Pre)": true,
		"ManualResetEvent": true, "ManualResetEvent(Pre)": true,
		"CountdownEvent": true, "CountdownEvent(Pre)": true,
		"TaskCompletionSource(Pre)": true,
	}
	for _, e := range bench.Registry() {
		if want[e.Subject.Name] {
			subs = append(subs, e.Subject)
		}
		if e.Pre != nil && want[e.Pre.Name] {
			subs = append(subs, e.Pre)
		}
	}
	return append(subs, racyRegister())
}

// checkReductionEquivalent runs Check on (sub, m) under every combination of
// {sequential, parallel} x {ReductionNone, ReductionSleep} and asserts the
// reduction-preservation contract: bit-identical verdict and first violation,
// identical distinct-history counts, and (sequentially) no more schedules
// explored with reduction than without. It returns the sequential pruned
// count so callers can check the reduction actually fires somewhere.
func checkReductionEquivalent(t *testing.T, sub *core.Subject, m *core.Test, base core.Options) int {
	t.Helper()
	run := func(workers int, red sched.Reduction) *core.Result {
		opts := base
		opts.Workers = workers
		opts.Reduction = red
		r, err := core.Check(sub, m, opts)
		if err != nil {
			t.Fatalf("%s workers=%d reduction=%s: %v", sub.Name, workers, red, err)
		}
		return r
	}
	full := run(1, sched.ReductionNone)
	reduced := run(1, sched.ReductionSleep)
	if full.Verdict != reduced.Verdict {
		t.Fatalf("%s: verdict differs: full=%s reduced=%s", sub.Name, full.Verdict, reduced.Verdict)
	}
	if fv, rv := violationString(full), violationString(reduced); fv != rv {
		t.Fatalf("%s: first violation differs under reduction:\nfull:\n%s\nreduced:\n%s", sub.Name, fv, rv)
	}
	if full.Phase2.Histories != reduced.Phase2.Histories || full.Phase2.Stuck != reduced.Phase2.Stuck {
		t.Fatalf("%s: distinct histories differ: full=%d/%d stuck, reduced=%d/%d stuck",
			sub.Name, full.Phase2.Histories, full.Phase2.Stuck, reduced.Phase2.Histories, reduced.Phase2.Stuck)
	}
	if reduced.Phase2.Executions > full.Phase2.Executions {
		t.Fatalf("%s: reduction explored more schedules (%d) than full search (%d)",
			sub.Name, reduced.Phase2.Executions, full.Phase2.Executions)
	}
	for _, red := range []sched.Reduction{sched.ReductionNone, sched.ReductionSleep} {
		par := run(4, red)
		if par.Verdict != full.Verdict {
			t.Fatalf("%s workers=4 reduction=%s: verdict %s, sequential %s", sub.Name, red, par.Verdict, full.Verdict)
		}
		if pv, fv := violationString(par), violationString(full); pv != fv {
			t.Fatalf("%s workers=4 reduction=%s: violation differs from sequential:\nparallel:\n%s\nsequential:\n%s",
				sub.Name, red, pv, fv)
		}
		if par.Phase2.Histories != full.Phase2.Histories || par.Phase2.Stuck != full.Phase2.Stuck {
			// History counts are exact for any worker count on passing or
			// exhaustive runs; on early-stopped failing runs in-flight
			// parallel work may visit extra executions, which can only add
			// histories, never lose them.
			if full.Verdict == core.Pass || base.ExhaustPhase2 || par.Phase2.Histories < full.Phase2.Histories {
				t.Fatalf("%s workers=4 reduction=%s: histories %d/%d stuck, sequential %d/%d stuck",
					sub.Name, red, par.Phase2.Histories, par.Phase2.Stuck, full.Phase2.Histories, full.Phase2.Stuck)
			}
		}
	}
	return reduced.Phase2.Pruned
}

// TestReductionEquivalence is the property suite of the reduction contract:
// random small tests over the registry subjects, checked under sequential and
// parallel exploration with reduction off and on, must agree on everything
// observable (verdict, first violation, distinct histories) while sleep-set
// reduction never explores more schedules. Run under -race by check-race.
func TestReductionEquivalence(t *testing.T) {
	sched.RequireNoLeaks(t)
	subs := reductionSubjects()
	totalPruned := 0
	prop := func(seed int64, exhaust bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sub := subs[rng.Intn(len(subs))]
		m := randomTest(rng, sub.Ops, 2, 2)
		base := core.Options{ExhaustPhase2: exhaust}
		totalPruned += checkReductionEquivalent(t, sub, m, base)
		return true
	}
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
	if totalPruned == 0 {
		t.Fatalf("sleep-set reduction pruned nothing across the whole property run")
	}
}

// TestReductionEquivalenceUnbounded repeats the contract without preemption
// bounding, where the classic (unrestricted) sleep sets are in effect.
// Unbounded full exploration of an unlucky random test can exceed any fixed
// execution budget (the schedule count is exponential in total steps), and a
// budget-truncated baseline proves nothing about the contract; such samples
// are probed first, cheaply, under a small explicit budget and skipped.
func TestReductionEquivalenceUnbounded(t *testing.T) {
	sched.RequireNoLeaks(t)
	subs := reductionSubjects()
	checked := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sub := subs[rng.Intn(len(subs))]
		m := randomTest(rng, sub.Ops, 2, 2)
		base := core.Options{
			PreemptionBound:       core.Unbounded,
			ExhaustPhase2:         true,
			MaxExecutionsPerPhase: 20000,
		}
		if _, err := core.Check(sub, m, base); err != nil {
			if errors.Is(err, sched.ErrBudget) {
				return true // vacuous: no full baseline to compare against
			}
			t.Fatalf("%s: probe: %v", sub.Name, err)
		}
		checked++
		checkReductionEquivalent(t, sub, m, base)
		return true
	}
	n := 15
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Skip("every sampled test exceeded the unbounded execution budget")
	}
}

// TestReductionAutoCheckEquivalent: the bounded AutoCheck loop reaches the
// same failing test after the same number of checks whether or not the
// per-test explorations are reduced.
func TestReductionAutoCheckEquivalent(t *testing.T) {
	sched.RequireNoLeaks(t)
	sub := lazyPreSubject()
	run := func(red sched.Reduction) *core.AutoResult {
		res, err := core.AutoCheck(sub, core.AutoOptions{
			Options:  core.Options{Reduction: red},
			MaxN:     2,
			MaxTests: 40,
		})
		if err != nil {
			t.Fatalf("autocheck reduction=%s: %v", red, err)
		}
		return res
	}
	full := run(sched.ReductionNone)
	reduced := run(sched.ReductionSleep)
	if full.Tests != reduced.Tests || (full.Failed == nil) != (reduced.Failed == nil) {
		t.Fatalf("autocheck diverged: full=%d tests (failed=%v), reduced=%d tests (failed=%v)",
			full.Tests, full.Failed != nil, reduced.Tests, reduced.Failed != nil)
	}
	if full.Failed != nil {
		if fv, rv := violationString(full.Failed), violationString(reduced.Failed); fv != rv {
			t.Fatalf("autocheck first violation differs:\nfull:\n%s\nreduced:\n%s", fv, rv)
		}
	}
}

// TestReductionEquivalenceCauseCases runs the contract on the paper's own
// bugs: every directed root-cause case A..L, buggy subject and corrected
// counterpart, exhaustively at the case's preemption bound, where the
// bounded-mode rule for retiring sleeping threads applies and must still
// prune something. B', F and G are repeated unbounded (classic sleep sets);
// the unreduced unbounded baseline of the larger cases takes minutes.
func TestReductionEquivalenceCauseCases(t *testing.T) {
	sched.RequireNoLeaks(t)
	unbounded := map[bench.Cause]bool{bench.CauseB + "'": true, bench.CauseF: true, bench.CauseG: true}
	for _, c := range bench.CauseCases() {
		for _, sub := range []*core.Subject{c.Subject, c.Counterpart} {
			if sub == nil {
				continue
			}
			base := core.Options{PreemptionBound: c.Bound, ExhaustPhase2: true}
			if checkReductionEquivalent(t, sub, c.Test, base) == 0 {
				t.Errorf("%s cause %s PB=%d: reduction pruned nothing", sub.Name, c.Cause, c.Bound)
			}
		}
		if unbounded[c.Cause] {
			checkReductionEquivalent(t, c.Subject, c.Test, core.Options{PreemptionBound: core.Unbounded, ExhaustPhase2: true})
		}
	}
}
