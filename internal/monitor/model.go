// Package monitor is a standalone linearizability monitor: it decides
// whether a single recorded concurrent history — calls and returns with the
// precedence order <H of the paper's Section 2, including pending (possibly
// stuck) operations — is linearizable with respect to an executable
// deterministic sequential model, by direct witness search instead of the
// phase-1 specification enumeration of Fig. 5.
//
// The search is the Wing–Gong backtracking algorithm with Lowe's
// improvements, in the form of Horn & Kroening's Algorithm 1
// (arXiv:1504.00204). The history is kept as one doubly linked list of call
// and return entries in event order; the operations that may be linearized
// next are the call entries in front of the first return entry, so a search
// node costs the history's concurrency at that point, not its length, and
// linearizing an operation or backtracking over it splices two entries. A
// memoized seen-set keyed on (linearized-op-set, model-state fingerprint)
// prunes revisits of equivalent search nodes; it compares whole keys, because
// a hash collision would be a wrong verdict, and the search stays a bounded
// exhaustive one (Options.MaxStates) because the problem is NP-hard.
// P-compositional partitioning splits the history into independent
// sub-histories when the model declares a partition function, checking the
// parts independently, as many at a time as there are CPUs. Pending
// operations are treated either per the generalized Definitions 2/3 (stuck
// histories need stuck serial witnesses) or per the classic Definition 1
// (pending calls may be completed with any result the model admits, or
// dropped).
package monitor

import (
	"errors"
	"fmt"
	"strings"
)

// ErrBlock is the sentinel a model's Step returns when the operation blocks
// (does not return) in the given state — e.g. Take() on an empty queue. The
// search treats a blocked operation as disabled; the generalized stuck check
// requires exactly this outcome for the pending operation.
var ErrBlock = errors.New("monitor: operation blocks in this state")

// ErrUnknownOp is returned (wrapped) by a model's Step for an operation it
// does not implement; it aborts the whole check rather than failing it.
var ErrUnknownOp = errors.New("monitor: operation unknown to the model")

// Model is an executable deterministic sequential specification. States must
// be treated as immutable: Step returns a fresh state and must not modify
// its argument, because the backtracking search re-enters earlier states.
type Model struct {
	// Name identifies the model, e.g. "queue".
	Name string
	// Init returns the initial state.
	Init func() any
	// Step applies one operation (by display name, e.g. "Enqueue(10)") to a
	// state and returns the canonical result string and the successor state.
	// It returns ErrBlock if the operation blocks in this state and an error
	// wrapping ErrUnknownOp for operations outside the model's vocabulary.
	Step func(state any, op string) (result string, next any, err error)
	// Fingerprint canonicalizes a state for the memoized seen-set. Two
	// states with equal fingerprints must be behaviorally identical.
	Fingerprint func(state any) string
	// Partition maps an operation to the key of the independent sub-object
	// it touches (P-compositionality): histories are split by key and the
	// parts checked separately against fresh initial states. Return ok=false
	// for operations that observe the whole object (e.g. Count()), which
	// disables partitioning of the history. A nil Partition means the model
	// is monolithic.
	Partition func(op string) (key string, ok bool)
	// EncodeState and DecodeState serialize a model state for durable
	// checkpoints (the streaming service persists per-partition state
	// frontiers across restarts). They must round-trip: DecodeState of an
	// EncodeState output yields a behaviorally identical state. Both nil is
	// fine for models that are never checkpointed.
	EncodeState func(state any) ([]byte, error)
	DecodeState func(data []byte) (any, error)
}

// fingerprint canonicalizes a model state, falling back to %#v rendering
// when the model does not define Fingerprint.
func (m *Model) fingerprint(state any) string {
	if m.Fingerprint != nil {
		return m.Fingerprint(state)
	}
	return fmt.Sprintf("%#v", state)
}

// SplitOp separates an operation display name "Method(args)" into its method
// and rendered argument list (e.g. "Add(200)" -> "Add", "200").
func SplitOp(name string) (method, args string) {
	i := strings.IndexByte(name, '(')
	if i < 0 || !strings.HasSuffix(name, ")") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// unknownOp builds the canonical unknown-operation error for model m.
func unknownOp(m *Model, op string) error {
	return fmt.Errorf("%w: %s model cannot apply %q", ErrUnknownOp, m.Name, op)
}
