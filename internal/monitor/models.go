package monitor

import (
	"encoding/json"
	"fmt"
	"sort"
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

// jsonStateCodec installs EncodeState/DecodeState that round-trip the model's
// state representation T through JSON. Every built-in model declares one, so
// the streaming service can checkpoint its per-partition state frontiers.
func jsonStateCodec[T any](m *Model) {
	m.EncodeState = func(state any) ([]byte, error) { return json.Marshal(state.(T)) }
	m.DecodeState = func(data []byte) (any, error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

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
// ConcurrentQueue and BlockingCollection vocabularies.
func QueueModel() *Model {
	m := &Model{Name: "queue", Init: func() any { return []string(nil) }}
	jsonStateCodec[[]string](m)
	m.Fingerprint = func(state any) string { return strings.Join(state.([]string), ",") }
	m.Step = func(state any, op string) (string, any, error) {
		q := state.([]string)
		method, args := SplitOp(op)
		switch method {
		case "Enqueue", "Add", "Put":
			return okResult, append(q[:len(q):len(q)], args), nil
		case "TryDequeue", "TryTake":
			if len(q) == 0 {
				return failResult, q, nil
			}
			return q[0], q[1:], nil
		case "Dequeue", "Take":
			if len(q) == 0 {
				return "", nil, ErrBlock
			}
			return q[0], q[1:], nil
		case "TryPeek":
			if len(q) == 0 {
				return failResult, q, nil
			}
			return q[0], q, nil
		case "Peek":
			if len(q) == 0 {
				return "", nil, ErrBlock
			}
			return q[0], q, nil
		case "Count":
			return strconv.Itoa(len(q)), q, nil
		case "IsEmpty":
			return boolResult(len(q) == 0), q, nil
		case "ToArray":
			return "[" + strings.Join(q, " ") + "]", q, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}

// StackModel is a LIFO stack: Push returns "ok", TryPop/TryPeek return the
// top element or "Fail", Pop blocks on an empty stack, ToArray snapshots
// top-first.
func StackModel() *Model {
	m := &Model{Name: "stack", Init: func() any { return []string(nil) }}
	jsonStateCodec[[]string](m)
	m.Fingerprint = func(state any) string { return strings.Join(state.([]string), ",") }
	m.Step = func(state any, op string) (string, any, error) {
		s := state.([]string)
		method, args := SplitOp(op)
		switch method {
		case "Push":
			return okResult, append(s[:len(s):len(s)], args), nil
		case "TryPop":
			if len(s) == 0 {
				return failResult, s, nil
			}
			return s[len(s)-1], s[:len(s)-1], nil
		case "Pop":
			if len(s) == 0 {
				return "", nil, ErrBlock
			}
			return s[len(s)-1], s[:len(s)-1], nil
		case "TryPeek":
			if len(s) == 0 {
				return failResult, s, nil
			}
			return s[len(s)-1], s, nil
		case "Count":
			return strconv.Itoa(len(s)), s, nil
		case "IsEmpty":
			return boolResult(len(s) == 0), s, nil
		case "ToArray":
			rev := make([]string, len(s))
			for i, v := range s {
				rev[len(s)-1-i] = v
			}
			return "[" + strings.Join(rev, " ") + "]", s, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}

// SetModel is a mathematical set of rendered values: Add and Remove report
// whether they changed the set, Contains tests membership, Count observes
// the size. Add/Remove/Contains touch only their element, so the model
// declares a per-value partition (P-compositionality); Count is a
// whole-object observer and disables splitting.
func SetModel() *Model {
	m := &Model{Name: "set", Init: func() any { return []string(nil) }}
	jsonStateCodec[[]string](m)
	m.Fingerprint = func(state any) string { return strings.Join(state.([]string), ",") }
	m.Partition = func(op string) (string, bool) {
		method, args := SplitOp(op)
		switch method {
		case "Add", "Remove", "Contains":
			return args, true
		}
		return "", false
	}
	m.Step = func(state any, op string) (string, any, error) {
		s := state.([]string)
		method, args := SplitOp(op)
		i := sort.SearchStrings(s, args)
		present := i < len(s) && s[i] == args
		switch method {
		case "Add":
			if present {
				return boolResult(false), s, nil
			}
			next := make([]string, 0, len(s)+1)
			next = append(next, s[:i]...)
			next = append(next, args)
			next = append(next, s[i:]...)
			return boolResult(true), next, nil
		case "Remove":
			if !present {
				return boolResult(false), s, nil
			}
			next := make([]string, 0, len(s)-1)
			next = append(next, s[:i]...)
			next = append(next, s[i+1:]...)
			return boolResult(true), next, nil
		case "Contains":
			return boolResult(present), s, nil
		case "Count":
			return strconv.Itoa(len(s)), s, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}

// RegisterModel is a single read/write register initialized to "0": Write
// returns "ok", Read returns the current value, CAS(old,new) swaps and
// reports success.
func RegisterModel() *Model {
	m := &Model{Name: "register", Init: func() any { return "0" }}
	jsonStateCodec[string](m)
	m.Fingerprint = func(state any) string { return state.(string) }
	m.Step = func(state any, op string) (string, any, error) {
		v := state.(string)
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
		return "", nil, unknownOp(m, op)
	}
	return m
}

// CounterModel is the Section 2.2 counter: Inc and Dec return "ok", Get
// returns the current count.
func CounterModel() *Model {
	m := &Model{Name: "counter", Init: func() any { return 0 }}
	jsonStateCodec[int](m)
	m.Fingerprint = func(state any) string { return strconv.Itoa(state.(int)) }
	m.Step = func(state any, op string) (string, any, error) {
		n := state.(int)
		method, _ := SplitOp(op)
		switch method {
		case "Inc", "Increment":
			return okResult, n + 1, nil
		case "Dec", "Decrement":
			return okResult, n - 1, nil
		case "Get", "Count":
			return strconv.Itoa(n), n, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}

// MREModel is a manual-reset event (the Fig. 9 class): Set and Reset return
// "ok", IsSet observes the flag, WaitOne(0) polls it, and Wait blocks until
// the event is set.
func MREModel() *Model {
	m := &Model{Name: "mre", Init: func() any { return false }}
	jsonStateCodec[bool](m)
	m.Fingerprint = func(state any) string { return boolResult(state.(bool)) }
	m.Step = func(state any, op string) (string, any, error) {
		set := state.(bool)
		method, _ := SplitOp(op)
		switch method {
		case "Set":
			return okResult, true, nil
		case "Reset":
			return okResult, false, nil
		case "IsSet":
			return boolResult(set), set, nil
		case "WaitOne":
			return boolResult(set), set, nil
		case "Wait":
			if !set {
				return "", nil, ErrBlock
			}
			return okResult, set, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}

// PQueueModel is a min-priority queue: Insert/Add/Put place an element and
// return "ok"; TryDeleteMin/TryRemoveMin remove and return the minimum or
// "Fail"; DeleteMin/RemoveMin block on an empty queue; TryPeekMin/PeekMin
// observe the minimum; Count and IsEmpty observe the size. Elements compare
// numerically when both parse as integers and lexicographically otherwise
// (the same order fast.Check uses, so the two stay cross-checkable).
func PQueueModel() *Model {
	m := &Model{Name: "pqueue", Init: func() any { return []string(nil) }}
	jsonStateCodec[[]string](m)
	m.Fingerprint = func(state any) string { return strings.Join(state.([]string), ",") }
	less := func(a, b string) bool {
		ai, aerr := strconv.Atoi(a)
		bi, berr := strconv.Atoi(b)
		if aerr == nil && berr == nil {
			return ai < bi
		}
		return a < b
	}
	m.Step = func(state any, op string) (string, any, error) {
		q := state.([]string)
		method, args := SplitOp(op)
		switch method {
		case "Insert", "Add", "Put":
			// Keep the state sorted so equal multisets fingerprint equally.
			i := sort.Search(len(q), func(i int) bool { return !less(q[i], args) })
			next := make([]string, 0, len(q)+1)
			next = append(next, q[:i]...)
			next = append(next, args)
			next = append(next, q[i:]...)
			return okResult, next, nil
		case "TryDeleteMin", "TryRemoveMin":
			if len(q) == 0 {
				return failResult, q, nil
			}
			return q[0], q[1:], nil
		case "DeleteMin", "RemoveMin":
			if len(q) == 0 {
				return "", nil, ErrBlock
			}
			return q[0], q[1:], nil
		case "TryPeekMin":
			if len(q) == 0 {
				return failResult, q, nil
			}
			return q[0], q, nil
		case "PeekMin":
			if len(q) == 0 {
				return "", nil, ErrBlock
			}
			return q[0], q, nil
		case "Count":
			return strconv.Itoa(len(q)), q, nil
		case "IsEmpty":
			return boolResult(len(q) == 0), q, nil
		}
		return "", nil, unknownOp(m, op)
	}
	return m
}
