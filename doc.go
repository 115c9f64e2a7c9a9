// Package lineup is a Go reproduction of "Line-Up: A Complete and Automatic
// Linearizability Checker" (Burckhardt, Dern, Musuvathi, Tan; PLDI 2010).
//
// Line-Up checks deterministic linearizability of a concurrent component
// automatically: given a finite test (a matrix of invocations, one column
// per thread), phase 1 enumerates all serial executions of the test with a
// stateless model checker and synthesizes a candidate deterministic
// sequential specification; phase 2 enumerates the concurrent executions
// (preemption-bounded) and checks every complete history for a serial
// witness and every stuck history for stuck serial witnesses. Any reported
// violation proves that the component is not linearizable with respect to
// any deterministic sequential specification (the paper's Theorem 5) — the
// checker needs no manual specification, no linearization-point
// annotations, and no access to the implementation's internals beyond its
// use of the instrumented synchronization primitives.
//
// # Architecture
//
// Because the Go runtime scheduler cannot be controlled, the repository
// contains its own deterministic cooperative scheduler (internal/sched, the
// substitute for the CHESS model checker the paper builds on): each logical
// thread is a goroutine gated so that exactly one runs at a time, yielding
// to the scheduler at every instrumented operation. Implementations under
// test use the primitives of internal/vsync (cells, atomics with
// compare-and-swap, monitors with TryLock, condition variables, wait sets)
// instead of Go's sync package.
//
// The checker itself lives in internal/core; the history theory (events,
// serial witnesses, specification synthesis, the determinism check) in
// internal/history; the Fig. 7 observation-file format in internal/obsfile.
// The subjects of the paper's evaluation — 13 concurrent classes mirroring
// the .NET Framework 4.0 (Table 1), plus "(Pre)" variants seeded with the
// root-cause defects of Table 2 — live in internal/collections and
// internal/buggy; the comparison checkers of Section 5.6 (happens-before
// race detection and conflict serializability) in internal/race and
// internal/atomicity.
//
// # Quick start
//
// Define a Subject (a constructor plus a universe of invocations), build a
// Test, and call Check:
//
//	sub := &lineup.Subject{
//		Name: "Counter",
//		New:  func(t *lineup.Thread) any { return collections.NewCounter(t) },
//		Ops:  []lineup.Op{incOp, getOp},
//	}
//	res, err := lineup.Check(sub, &lineup.Test{Rows: [][]lineup.Op{{incOp, getOp}, {incOp}}}, lineup.Options{})
//	if res.Verdict == lineup.Fail {
//		fmt.Println(res.Violation)
//	}
//
// RandomCheck samples random test matrices (the paper's evaluation mode),
// AutoCheck enumerates them systematically (Fig. 6), Shrink minimizes a
// failing test, and CheckAgainstModel checks an implementation against a
// reference model instead of against its own serial behaviors.
//
// One check's phase-2 schedule exploration is shared among the CPUs the
// process may use (Options.Workers bounds the pool; 1 is the sequential
// run). The verdict, the reported first violation and every statistic are
// identical to the sequential explorer for every worker count (DESIGN.md
// describes the interval and minimum-position construction behind that
// guarantee). Subject code therefore runs on several goroutines at once,
// each on its own object from Subject.New.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package lineup
