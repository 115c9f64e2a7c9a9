package subjects_test

import (
	"testing"

	"lineup/internal/core"
	"lineup/internal/sched"
	"lineup/internal/subjects"
)

// checkOpts is the per-entry checking configuration of the directed tests.
func checkOpts(e *subjects.Entry) core.Options {
	return core.Options{PreemptionBound: e.Bound}
}

// TestRegistry sanity-checks the corpus wiring: every entry is complete, its
// op universes expose the directed tests' operations, and the pipeline alone
// has a relaxed sibling.
func TestRegistry(t *testing.T) {
	reg := subjects.Registry()
	if len(reg) != 4 {
		t.Fatalf("registry has %d entries, want 4", len(reg))
	}
	for _, e := range reg {
		if e.Subject == nil || e.Pre == nil || (e.Relaxed != nil) != (e.Name == "Pipeline") {
			t.Fatalf("%s: incomplete variant set", e.Name)
		}
		if e.Model == nil || e.StrictTest == nil || (e.Relaxed != nil) != (e.RelaxedTest != nil) {
			t.Fatalf("%s: missing model or directed test", e.Name)
		}
		if got, ok := subjects.Find(e.Name); !ok || got.Name != e.Name {
			t.Fatalf("Find(%q) failed", e.Name)
		}
		for _, row := range e.StrictTest.Rows {
			for _, op := range row {
				if _, ok := e.Subject.FindOp(op.Name()); !ok {
					t.Errorf("%s: strict test op %s not in universe", e.Name, op.Name())
				}
			}
		}
		if e.Relaxed == nil {
			continue
		}
		for _, row := range e.RelaxedTest.Rows {
			for _, op := range row {
				if _, ok := e.Relaxed.FindOp(op.Name()); !ok {
					t.Errorf("%s: relaxed test op %s not in relaxed universe", e.Name, op.Name())
				}
			}
		}
	}
	if _, ok := subjects.Find("NoSuchSubject"); ok {
		t.Fatal("Find accepted an unknown name")
	}
}

// TestStrictSubjectsPass: the correct implementation of every family passes
// its directed test under strict linearizability.
func TestStrictSubjectsPass(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range subjects.Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := core.Check(e.Subject, e.StrictTest, checkOpts(e))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Verdict != core.Pass {
				t.Fatalf("correct %s failed its directed test:\n%s", e.Name, res.Violation)
			}
		})
	}
}

// TestPreSubjectsFail: every defect-seeded sibling is convicted by the same
// directed test its correct twin passes.
func TestPreSubjectsFail(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range subjects.Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := core.Check(e.Pre, e.StrictTest, checkOpts(e))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Verdict != core.Fail {
				t.Fatalf("seeded bug in %s(Pre) was not found", e.Name)
			}
		})
	}
}

// relaxedEntries are the families with a relaxed sibling.
func relaxedEntries() []*subjects.Entry {
	var out []*subjects.Entry
	for _, e := range subjects.Registry() {
		if e.Relaxed != nil {
			out = append(out, e)
		}
	}
	return out
}

// TestRelaxedSubjectsFailStrictly: every relaxed sibling violates
// linearizability on its directed test...
func TestRelaxedSubjectsFailStrictly(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range relaxedEntries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := core.Check(e.Relaxed, e.RelaxedTest, checkOpts(e))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Verdict != core.Fail {
				t.Fatalf("%s(Relaxed) unexpectedly passed its directed test strictly", e.Name)
			}
		})
	}
}

// TestRelaxedSubjectsPassRelaxed: ...and passes once its declared
// nondeterministic operations are wildcarded.
func TestRelaxedSubjectsPassRelaxed(t *testing.T) {
	sched.RequireNoLeaks(t)
	for _, e := range relaxedEntries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := core.Check(e.Relaxed, e.RelaxedTest, checkOpts(e).Relax(e.RelaxedOps...))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Verdict != core.Pass {
				t.Fatalf("%s(Relaxed) failed with relaxed ops %v:\n%s", e.Name, e.RelaxedOps, res.Violation)
			}
		})
	}
}

// TestMapModelKeysMatchExactly: the map model used to find an entry by the
// prefix k+"=" of its "k=v" rendering, so after Put(a=b,1) a Get(a) read
// "b=1". Entries are [key, value] Lists now and keys compare whole.
func TestMapModelKeysMatchExactly(t *testing.T) {
	m := subjects.MapModel()
	state := m.Init()
	for _, step := range []struct{ op, want string }{
		{"Put(a=b,1)", "ok"}, {"Get(a)", "Fail"}, {"Delete(a)", "false"}, {"Get(a=b)", "1"},
		{"Put(a,2)", "ok"}, {"Put(a,3)", "ok"}, {"Get(a)", "3"}, {"Len()", "2"},
		{"Delete(a=b)", "true"}, {"Get(a=b)", "Fail"}, {"Len()", "1"},
	} {
		res, next, err := m.Step(state, step.op)
		if err != nil || res != step.want {
			t.Fatalf("%s = %q (err %v), want %q", step.op, res, err, step.want)
		}
		state = next
	}
}
