package monitor

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Result-string conventions shared with the checked collections: void
// operations return "ok", failed try-operations return "Fail", booleans
// render "true"/"false", and snapshots render "[a b c]".
const (
	okResult   = "ok"
	failResult = "Fail"
)

func boolResult(v bool) string { return strconv.FormatBool(v) }

// Builtin returns a built-in model by name (see BuiltinNames).
func Builtin(name string) (*Model, bool) {
	switch name {
	case "queue":
		return QueueModel(), true
	case "stack":
		return StackModel(), true
	case "set":
		return SetModel(), true
	case "register":
		return RegisterModel(), true
	case "pqueue":
		return PQueueModel(), true
	case "counter":
		return CounterModel(), true
	case "mre":
		return MREModel(), true
	}
	return nil, false
}

// MarshalText and UnmarshalText make a model travel as its name: code never
// does. Reading resolves the name among the built-in models, and a name that
// is none of them is an error — never a fallback to some other model.
func (m *Model) MarshalText() ([]byte, error) { return []byte(m.Name), nil }

func (m *Model) UnmarshalText(b []byte) error {
	bm, ok := Builtin(string(b))
	if !ok {
		return fmt.Errorf("monitor: unknown model %q (one of %s)", b, strings.Join(BuiltinNames(), ", "))
	}
	*m = *bm
	return nil
}

// BuiltinNames lists the built-in models in display order.
func BuiltinNames() []string {
	return []string{"queue", "stack", "set", "register", "pqueue", "counter", "mre"}
}

// QueueModel is a FIFO queue: Enqueue/Add/Put append and return "ok";
// TryDequeue/TryTake/TryPeek return the front element or "Fail";
// Dequeue/Take/Peek block on an empty queue; Count, IsEmpty and ToArray
// observe the contents. It matches the serial behavior of the repository's
// ConcurrentQueue and BlockingCollection vocabularies. The state is a List,
// front first.
func QueueModel() *Model {
	m := &Model{Name: "queue", Init: func() string { return "" }}
	m.Step = func(state, op string) (string, string, error) {
		q := List(state)
		front, rest, ok := q.PopFront()
		method, args := SplitOp(op)
		switch method {
		case "Enqueue", "Add", "Put":
			return okResult, string(q.Append(args)), nil
		case "TryDequeue", "TryTake":
			if !ok {
				return failResult, state, nil
			}
			return front, string(rest), nil
		case "Dequeue", "Take":
			if !ok {
				return "", "", ErrBlock
			}
			return front, string(rest), nil
		case "TryPeek":
			if !ok {
				return failResult, state, nil
			}
			return front, state, nil
		case "Peek":
			if !ok {
				return "", "", ErrBlock
			}
			return front, state, nil
		case "Count":
			return strconv.Itoa(q.Len()), state, nil
		case "IsEmpty":
			return boolResult(!ok), state, nil
		case "ToArray":
			return "[" + strings.Join(q.Items(), " ") + "]", state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// StackModel is a LIFO stack: Push returns "ok", TryPop/TryPeek return the
// top element or "Fail", Pop blocks on an empty stack, ToArray snapshots
// top-first. The state is a List, top first.
func StackModel() *Model {
	m := &Model{Name: "stack", Init: func() string { return "" }}
	m.Step = func(state, op string) (string, string, error) {
		s := List(state)
		top, rest, ok := s.PopFront()
		method, args := SplitOp(op)
		switch method {
		case "Push":
			return okResult, string(s.Prepend(args)), nil
		case "TryPop":
			if !ok {
				return failResult, state, nil
			}
			return top, string(rest), nil
		case "Pop":
			if !ok {
				return "", "", ErrBlock
			}
			return top, string(rest), nil
		case "TryPeek":
			if !ok {
				return failResult, state, nil
			}
			return top, state, nil
		case "Count":
			return strconv.Itoa(s.Len()), state, nil
		case "IsEmpty":
			return boolResult(!ok), state, nil
		case "ToArray":
			return "[" + strings.Join(s.Items(), " ") + "]", state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// SetModel is a mathematical set of rendered values: Add and Remove report
// whether they changed the set, Contains tests membership, Count observes
// the size. Add/Remove/Contains touch only their element, so the model
// declares a per-value partition (P-compositionality); Count is a
// whole-object observer and disables splitting. The state is a sorted List.
func SetModel() *Model {
	m := &Model{Name: "set", Init: func() string { return "" }}
	m.Partition = func(op string) (string, bool) {
		method, args := SplitOp(op)
		switch method {
		case "Add", "Remove", "Contains":
			return args, true
		}
		return "", false
	}
	m.Step = func(state, op string) (string, string, error) {
		s := List(state)
		method, args := SplitOp(op)
		without, present := s.Remove(args)
		switch method {
		case "Add":
			if present {
				return boolResult(false), state, nil
			}
			return boolResult(true), string(s.Insert(args, cmp.Less[string])), nil
		case "Remove":
			return boolResult(present), string(without), nil
		case "Contains":
			return boolResult(present), state, nil
		case "Count":
			return strconv.Itoa(s.Len()), state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// RegisterModel is a single read/write register initialized to "0": Write
// returns "ok", Read returns the current value, CAS(old,new) swaps and
// reports success. The state is the value.
func RegisterModel() *Model {
	m := &Model{Name: "register", Init: func() string { return "0" }}
	m.Step = func(v, op string) (string, string, error) {
		method, args := SplitOp(op)
		switch method {
		case "Read", "Get":
			return v, v, nil
		case "Write", "Set":
			return okResult, args, nil
		case "CAS":
			parts := strings.SplitN(args, ",", 2)
			if len(parts) == 2 && strings.TrimSpace(parts[0]) == v {
				return boolResult(true), strings.TrimSpace(parts[1]), nil
			}
			return boolResult(false), v, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// CounterModel is the Section 2.2 counter: Inc and Dec return "ok", Get
// returns the current count. The state is the count in decimal.
func CounterModel() *Model {
	m := &Model{Name: "counter", Init: func() string { return "0" }}
	m.Step = func(state, op string) (string, string, error) {
		n, _ := strconv.Atoi(state) // written by Init and Step only
		method, _ := SplitOp(op)
		switch method {
		case "Inc", "Increment":
			return okResult, strconv.Itoa(n + 1), nil
		case "Dec", "Decrement":
			return okResult, strconv.Itoa(n - 1), nil
		case "Get", "Count":
			return state, state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// MREModel is a manual-reset event (the Fig. 9 class): Set and Reset return
// "ok", IsSet observes the flag, WaitOne(0) polls it, and Wait blocks until
// the event is set. The state is the flag, "true" or "false".
func MREModel() *Model {
	m := &Model{Name: "mre", Init: func() string { return boolResult(false) }}
	m.Step = func(state, op string) (string, string, error) {
		method, _ := SplitOp(op)
		switch method {
		case "Set":
			return okResult, boolResult(true), nil
		case "Reset":
			return okResult, boolResult(false), nil
		case "IsSet", "WaitOne":
			return state, state, nil
		case "Wait":
			if state != boolResult(true) {
				return "", "", ErrBlock
			}
			return okResult, state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}

// PQueueModel is a min-priority queue: Insert/Add/Put place an element and
// return "ok"; TryDeleteMin/TryRemoveMin remove and return the minimum or
// "Fail"; DeleteMin/RemoveMin block on an empty queue; TryPeekMin/PeekMin
// observe the minimum; Count and IsEmpty observe the size. Elements compare
// numerically when both parse as integers and lexicographically otherwise
// (the same order fast.Check uses, so the two stay cross-checkable). The
// state is a List sorted by that order, so equal multisets are equal states.
func PQueueModel() *Model {
	m := &Model{Name: "pqueue", Init: func() string { return "" }}
	less := func(a, b string) bool {
		ai, aerr := strconv.Atoi(a)
		bi, berr := strconv.Atoi(b)
		if aerr == nil && berr == nil {
			return ai < bi
		}
		return a < b
	}
	m.Step = func(state, op string) (string, string, error) {
		q := List(state)
		least, rest, ok := q.PopFront()
		method, args := SplitOp(op)
		switch method {
		case "Insert", "Add", "Put":
			return okResult, string(q.Insert(args, less)), nil
		case "TryDeleteMin", "TryRemoveMin":
			if !ok {
				return failResult, state, nil
			}
			return least, string(rest), nil
		case "DeleteMin", "RemoveMin":
			if !ok {
				return "", "", ErrBlock
			}
			return least, string(rest), nil
		case "TryPeekMin":
			if !ok {
				return failResult, state, nil
			}
			return least, state, nil
		case "PeekMin":
			if !ok {
				return "", "", ErrBlock
			}
			return least, state, nil
		case "Count":
			return strconv.Itoa(q.Len()), state, nil
		case "IsEmpty":
			return boolResult(!ok), state, nil
		}
		return "", "", unknownOp(m, op)
	}
	return m
}
