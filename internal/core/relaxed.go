package core

import (
	"fmt"

	"lineup/internal/history"
)

// Consistency selects the correctness criterion phase 2 checks complete
// histories against. Linearizability is the paper's default; the two relaxed
// criteria weaken only the ordering constraints of the witness search —
// results must still match some serial execution, and stuck histories are
// always checked strictly (blocking behavior is a liveness property that
// neither criterion relaxes). Both relaxed criteria are weaker than
// linearizability: every history with a linearizability witness also has a
// witness under either of them, never the converse.
type Consistency int

const (
	// Linearizability is the strict criterion of Definition 1/3: the witness
	// must respect all real-time precedence (<H ⊆ <S).
	Linearizability Consistency = iota
	// SequentialConsistency keeps only program order: the witness must have
	// the same per-thread subhistories but may reorder operations of
	// different threads arbitrarily, even against real time.
	SequentialConsistency
	// QuiescentConsistency keeps real-time order only across quiescent
	// points (instants with no operation pending): operations separated by a
	// quiescent point stay ordered, operations within one quiescence block
	// may be reordered freely.
	QuiescentConsistency
)

func (c Consistency) String() string {
	switch c {
	case Linearizability:
		return "linearizable"
	case SequentialConsistency:
		return "sequential"
	case QuiescentConsistency:
		return "quiescent"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// MarshalText and UnmarshalText give a Consistency its one text form (what
// String renders; the flag's shorthands and the empty string are read too).
func (c Consistency) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

func (c *Consistency) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "linearizable", "linearizability", "strict":
		*c = Linearizability
	case "sequential", "sc":
		*c = SequentialConsistency
	case "quiescent", "qc":
		*c = QuiescentConsistency
	default:
		return fmt.Errorf("core: unknown consistency %q (want linearizable, sequential, or quiescent)", b)
	}
	return nil
}

// ParseConsistency parses the text form of a consistency criterion.
func ParseConsistency(s string) (Consistency, error) {
	var c Consistency
	err := c.UnmarshalText([]byte(s))
	return c, err
}

// RelaxedResult is the wildcard that replaces the results of relaxed
// operations in histories and specifications.
const RelaxedResult = "*"

// Relax marks the named operations (display names, e.g. "Count()") as
// nondeterministic: their results are replaced by a wildcard before
// specification synthesis and witness checking, so differing results never
// cause a failure while the operations' ordering and blocking behavior are
// still checked. This implements the paper's future-work item of Section 6
// ("incorporate support for nondeterministic methods, such as methods that
// may fail on interference"): after the developers of ConcurrentBag and
// BlockingCollection documented the weak semantics of Count/TryTake
// (Section 5.2.2), a user would relax exactly those methods and keep
// checking the rest of the class.
func (o Options) Relax(names ...string) Options {
	relaxed := make(map[string]bool, len(o.RelaxedOps)+len(names))
	out := o
	out.RelaxedOps = append(append([]string(nil), o.RelaxedOps...), names...)
	for _, n := range out.RelaxedOps {
		relaxed[n] = true
	}
	return out
}

// relaxedSet builds the lookup set from the options.
func (o Options) relaxedSet() map[string]bool {
	if len(o.RelaxedOps) == 0 {
		return nil
	}
	m := make(map[string]bool, len(o.RelaxedOps))
	for _, n := range o.RelaxedOps {
		m[n] = true
	}
	return m
}

// normalizeRelaxed rewrites the results of relaxed operations to the
// wildcard. It must be applied to every history before it reaches the
// specification or a witness check, in both phases, so that spec and
// history signatures agree.
func normalizeRelaxed(h *history.History, relaxed map[string]bool) {
	if len(relaxed) == 0 {
		return
	}
	for i := range h.Events {
		e := &h.Events[i]
		if e.Kind == history.Return && relaxed[e.Op] {
			e.Result = RelaxedResult
		}
	}
}
