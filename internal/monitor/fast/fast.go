// Package fast implements specialized near-log-linear linearizability
// monitors for the five classic data types — queue, stack, set, register,
// and priority queue — following the decrease-and-conquer approach of Lee &
// Mathur (arXiv:2410.04581) and the per-type monitors of Abdulla et al.
// (arXiv:2509.17795).
//
// Every checker in this package is certificate-driven: it answers
// "linearizable" only after constructing an explicit witness (a set of
// linearization points, one inside each operation's interval, replaying
// legally on the sequential object), and "not linearizable" only after
// finding a violation certificate that rules out every interleaving (a
// value dequeued twice, a FIFO order inversion, an infeasible per-value
// presence interval, ...). Whenever a history falls outside the fragment a
// checker can decide — pending operations, stuck histories, duplicate
// values, observer operations such as Count or failed TryDequeue — it
// returns ErrAmbiguous and the caller falls back to the general memoized
// WGL witness search. The fallback keeps verdicts bit-identical to the
// exhaustive checker by construction: fast never guesses.
//
// Complexity: O(n log n) per history for every type. The queue and priority
// queue use an interval sweep (Fenwick tree for the pairwise priority
// certificate); the stack and priority queue build their witnesses by a
// greedy event-order simulation that only ever removes from the top /
// minimum; the set solves an exact two-point feasibility problem per value;
// the register schedules write clusters greedily by earliest deadline.
package fast

import (
	"errors"
	"math"
	"strconv"
	"strings"

	"lineup/internal/history"
)

// ErrAmbiguous reports that a history is outside the fragment the
// specialized monitor can decide; the caller must fall back to the general
// witness search. It is a sentinel: wrapped errors compare with errors.Is.
var ErrAmbiguous = errors.New("fast: history outside the decidable fragment")

// inf is the position assigned to operations that never happen (a value
// never dequeued, a second transition that does not exist). It is far above
// any real event position but far from integer overflow so sums stay safe.
const inf = math.MaxInt / 4

// Kind selects which specialized monitor to run.
type Kind int

const (
	// KindQueue checks FIFO queue histories (Enqueue/Dequeue vocabulary).
	KindQueue Kind = iota
	// KindStack checks LIFO stack histories (Push/Pop vocabulary).
	KindStack
	// KindSet checks set histories (Add/Remove/Contains vocabulary).
	KindSet
	// KindRegister checks atomic register histories (Read/Write vocabulary).
	KindRegister
	// KindPQueue checks priority queue histories (Insert/DeleteMin vocabulary).
	KindPQueue
)

// String names the kind after its monitor.Model counterpart.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindStack:
		return "stack"
	case KindSet:
		return "set"
	case KindRegister:
		return "register"
	case KindPQueue:
		return "pqueue"
	}
	return "unknown"
}

// KindFor maps a monitor.Model name to the specialized monitor that decides
// it, if one exists. The names match monitor.Builtin.
func KindFor(model string) (Kind, bool) {
	switch model {
	case "queue":
		return KindQueue, true
	case "stack":
		return KindStack, true
	case "set":
		return KindSet, true
	case "register":
		return KindRegister, true
	case "pqueue":
		return KindPQueue, true
	}
	return 0, false
}

// Check runs the specialized monitor for kind k on h. It returns a definite
// verdict (true = linearizable) with a nil error, or ErrAmbiguous when the
// history is outside the decidable fragment and the caller must fall back
// to the general witness search. Check never returns a wrong definite
// verdict: true is backed by a constructed witness, false by a violation
// certificate.
func Check(k Kind, h *history.History) (bool, error) {
	ops, ok := completeOps(h)
	if !ok {
		return false, ErrAmbiguous
	}
	switch k {
	case KindQueue:
		return checkQueue(ops)
	case KindStack:
		return checkStack(ops)
	case KindSet:
		return checkSet(ops)
	case KindRegister:
		return checkRegister(ops)
	case KindPQueue:
		return checkPQueue(ops)
	}
	return false, ErrAmbiguous
}

// call is one completed operation with its method split from its rendered
// argument, positioned by event indices (all distinct, call < ret).
type call struct {
	method string
	arg    string
	res    string
	call   int
	ret    int
}

// completeOps extracts the operations of a complete, non-stuck history.
// Pending operations and stuck histories are outside every fragment (the
// fast monitors construct witnesses over closed intervals only), so those
// yield ok=false and the caller reports ErrAmbiguous.
func completeOps(h *history.History) ([]call, bool) {
	if h == nil || h.Stuck {
		return nil, false
	}
	raw := h.Ops()
	out := make([]call, 0, len(raw))
	for _, op := range raw {
		if !op.Complete {
			return nil, false
		}
		method, arg := splitOp(op.Name)
		out = append(out, call{method: method, arg: arg, res: op.Result, call: op.CallPos, ret: op.RetPos})
	}
	return out, true
}

// splitOp separates "Method(args)" into method and rendered argument list,
// mirroring monitor.SplitOp.
func splitOp(name string) (method, args string) {
	i := strings.IndexByte(name, '(')
	if i < 0 || !strings.HasSuffix(name, ")") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// valueLess orders priority-queue values: numerically when both parse as
// integers, lexicographically otherwise. monitor.PQueueModel uses the same
// order; the two must agree or cross-checking fails.
func valueLess(a, b string) bool { return valueCmp(a, b) < 0 }

// valueCmp is the three-way form of valueLess. Distinct strings can compare
// equal ("01" vs "1" both parse as 1): equal-priority values are NOT
// interchangeable under the model — PQueueModel inserts each value at the
// head of its equal-priority block — so checkPQueue resolves ties by insert
// time instead of inventing an arbitrary order.
func valueCmp(a, b string) int {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	if aerr == nil && berr == nil {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}
