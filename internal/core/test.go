// Package core implements the Line-Up algorithm of the paper: finite tests
// (invocation matrices, Section 3.1), the two-phase Check of Fig. 5, the
// AutoCheck enumeration of Fig. 6, the RandomCheck sampling of Fig. 8, and
// automatic shrinking of failing tests (automating the manual minimization
// of Section 5.1).
package core

import (
	"fmt"
	"strings"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// Op is one invocation of the object under test: a method name with
// rendered arguments, and a closure that performs the call on a concrete
// object and returns the canonical result string. Blocking invocations
// simply do not return until unblocked; the checker observes the pending
// call. Void results are rendered "ok", boolean results "true"/"false",
// and failed try-operations "Fail", following the paper's examples.
type Op struct {
	// Method is the method name, e.g. "Add".
	Method string
	// Args is the rendered argument list, e.g. "200" (may be empty).
	Args string
	// Run performs the invocation. obj is the object created by Subject.New.
	Run func(t *sched.Thread, obj any) string
}

// Name returns the display name used in histories, e.g. "Add(200)".
func (op Op) Name() string {
	if op.Args == "" {
		return op.Method + "()"
	}
	return op.Method + "(" + op.Args + ")"
}

// MarshalText and UnmarshalText make an invocation travel as its display
// name: code never does. Reading yields a name-only Op (Run is nil), which
// TestFromNames resolves in a subject's universe before anything runs it.
func (op Op) MarshalText() ([]byte, error) { return []byte(op.Name()), nil }

func (op *Op) UnmarshalText(b []byte) error {
	*op = Op{}
	op.Method, op.Args = monitor.SplitOp(string(b))
	return nil
}

// Subject is an implementation under test: a constructor and a universe of
// representative invocations (the list I of Section 4.3 that random tests
// draw from).
type Subject struct {
	// Name identifies the class, e.g. "ConcurrentQueue" or
	// "ConcurrentQueue(Pre)".
	Name string
	// New constructs a fresh object; it runs single-threaded inside the
	// setup pseudo-thread of every execution.
	New func(t *sched.Thread) any
	// Ops is the representative invocation universe.
	Ops []Op
	// SourceFiles lists the implementation source files (module-relative),
	// used by the Table 1 harness to count lines of code.
	SourceFiles []string
}

// FindOp returns the representative invocation with the given display name.
func (s *Subject) FindOp(name string) (Op, bool) {
	for _, op := range s.Ops {
		if op.Name() == name {
			return op, true
		}
	}
	return Op{}, false
}

// Test is a finite test (Section 3.1): a map from threads to invocation
// sequences, written as a matrix with one column per thread, plus optional
// initial and final invocation sequences (Section 4.3). Initial invocations
// run unobserved in the setup pseudo-thread (state preparation); final
// invocations run and are observed in a teardown pseudo-thread after all
// test threads have finished, which lets tests observe the final state.
//
// A Test is written down as {init, rows, final} of display names — in the
// dist job file and manifest and in a generated corpus — and what is read back
// is name-only until TestFromNames rebuilds it against a subject.
type Test struct {
	Init  []Op   `json:"init,omitempty"`
	Rows  [][]Op `json:"rows"` // Rows[i] is the invocation sequence of thread i
	Final []Op   `json:"final,omitempty"`
}

// TestFromNames rebuilds a test from its written form, resolving every display
// name in the subject's universe.
func TestFromNames(sub *Subject, names *Test) (*Test, error) {
	m := names.Clone()
	for _, row := range append([][]Op{m.Init, m.Final}, m.Rows...) {
		for i := range row {
			op, ok := sub.FindOp(row[i].Name())
			if !ok {
				return nil, fmt.Errorf("lineup: %s has no invocation %q", sub.Name, row[i].Name())
			}
			row[i] = op
		}
	}
	return m, nil
}

// Dim returns the dimension of the test: number of threads and the length
// of the longest invocation sequence.
func (m *Test) Dim() (threads, ops int) {
	threads = len(m.Rows)
	for _, r := range m.Rows {
		if len(r) > ops {
			ops = len(r)
		}
	}
	return threads, ops
}

// NumOps returns the total number of invocations in the matrix (excluding
// init and final sequences).
func (m *Test) NumOps() int {
	n := 0
	for _, r := range m.Rows {
		n += len(r)
	}
	return n
}

// IsPrefixOf reports whether m is a prefix of m2 in the sense of Section
// 3.1: each thread's invocation sequence in m is a prefix of the matching
// sequence in m2 (missing rows count as empty), and the init and final
// sequences agree.
func (m *Test) IsPrefixOf(m2 *Test) bool {
	if len(m.Rows) > len(m2.Rows) {
		return false
	}
	if !sameOps(m.Init, m2.Init) || !sameOps(m.Final, m2.Final) {
		return false
	}
	for i, row := range m.Rows {
		if len(row) > len(m2.Rows[i]) {
			return false
		}
		for j, op := range row {
			if op.Name() != m2.Rows[i][j].Name() {
				return false
			}
		}
	}
	return true
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			return false
		}
	}
	return true
}

// String renders the test as a matrix, one thread per column, as in the
// paper's Fig. 7 (top).
func (m *Test) String() string {
	var b strings.Builder
	threads, depth := m.Dim()
	if len(m.Init) > 0 {
		fmt.Fprintf(&b, "init: %s\n", strings.Join(opNames(m.Init), "; "))
	}
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "%-14s", "Thread "+history.ThreadName(i))
	}
	b.WriteByte('\n')
	for j := 0; j < depth; j++ {
		for i := 0; i < threads; i++ {
			cell := ""
			if j < len(m.Rows[i]) {
				cell = m.Rows[i][j].Name()
			}
			fmt.Fprintf(&b, "%-14s", cell)
		}
		b.WriteByte('\n')
	}
	if len(m.Final) > 0 {
		fmt.Fprintf(&b, "final: %s\n", strings.Join(opNames(m.Final), "; "))
	}
	return b.String()
}

// Clone returns a deep copy of the test's structure (ops are shared, which
// is safe because Op values are immutable).
func (m *Test) Clone() *Test {
	c := &Test{
		Init:  append([]Op(nil), m.Init...),
		Final: append([]Op(nil), m.Final...),
	}
	for _, r := range m.Rows {
		c.Rows = append(c.Rows, append([]Op(nil), r...))
	}
	return c
}
