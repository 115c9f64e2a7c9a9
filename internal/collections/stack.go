package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// Stack is the corrected ConcurrentStack: a lock-free Treiber stack. Push
// and pop are CAS loops on the head pointer; because popped nodes are never
// mutated, a snapshot of the head pointer gives an immutable view of the
// whole stack, which makes Count, ToArray and TryPeek linearizable at the
// single head load. The failing-CAS retry pattern is the first of the
// benign conflict-serializability violations discussed in Section 5.6.
type Stack struct {
	pre  bool
	head *vsync.Atomic[*stackNode]
}

type stackNode struct {
	value int
	next  *stackNode // immutable after publication
}

// NewStack constructs an empty stack.
func NewStack(t *sched.Thread) *Stack {
	return &Stack{head: vsync.NewAtomic[*stackNode](t, "Stack.head", nil)}
}

// NewStackPre constructs an empty (Pre) stack. It reproduces root cause C:
// TryPopRange is implemented as a loop of single pops instead of one atomic
// multi-pop CAS, so elements pushed by other threads can interleave into
// the middle of the popped range — the range observed is one that never
// existed on the stack, which no serial witness can justify.
func NewStackPre(t *sched.Thread) *Stack {
	s := NewStack(t)
	s.pre = true
	return s
}

// Push adds v on top of the stack.
func (s *Stack) Push(t *sched.Thread, v int) {
	for {
		h := s.head.Load(t)
		n := &stackNode{value: v, next: h}
		if s.head.CompareAndSwap(t, h, n) {
			return
		}
	}
}

// PushRange pushes all values as one atomic unit; vs[len-1] ends up on top,
// matching .NET's PushRange.
func (s *Stack) PushRange(t *sched.Thread, vs []int) {
	if len(vs) == 0 {
		return
	}
	for {
		h := s.head.Load(t)
		top := h
		for _, v := range vs {
			top = &stackNode{value: v, next: top}
		}
		if s.head.CompareAndSwap(t, h, top) {
			return
		}
	}
}

// TryPop removes and returns the top element; ok is false if the stack is
// empty.
func (s *Stack) TryPop(t *sched.Thread) (v int, ok bool) {
	for {
		h := s.head.Load(t)
		if h == nil {
			return 0, false
		}
		if s.head.CompareAndSwap(t, h, h.next) {
			return h.value, true
		}
	}
}

// TryPopRange pops up to n elements as one atomic unit and returns them top
// first. It returns nil if the stack is empty. BUG (root cause C, (Pre)
// only): the range is assembled from n independent single pops, so
// concurrent pushes can interleave into the observed range.
func (s *Stack) TryPopRange(t *sched.Thread, n int) []int {
	if s.pre {
		var out []int
		for len(out) < n {
			v, ok := s.TryPop(t) // BUG: should be a single CAS over the range
			if !ok {
				break
			}
			out = append(out, v)
		}
		return out
	}
	for {
		h := s.head.Load(t)
		if h == nil {
			return nil
		}
		var out []int
		node := h
		for len(out) < n && node != nil {
			out = append(out, node.value)
			node = node.next
		}
		if s.head.CompareAndSwap(t, h, node) {
			return out
		}
	}
}

// TryPeek returns the top element without removing it; ok is false if the
// stack is empty.
func (s *Stack) TryPeek(t *sched.Thread) (v int, ok bool) {
	h := s.head.Load(t)
	if h == nil {
		return 0, false
	}
	return h.value, true
}

// Count returns the number of elements (linearizable at the head load).
func (s *Stack) Count(t *sched.Thread) int {
	n := 0
	for node := s.head.Load(t); node != nil; node = node.next {
		n++
	}
	return n
}

// IsEmpty reports whether the stack is empty.
func (s *Stack) IsEmpty(t *sched.Thread) bool {
	return s.head.Load(t) == nil
}

// ToArray returns a snapshot of the elements, top first.
func (s *Stack) ToArray(t *sched.Thread) []int {
	var out []int
	for node := s.head.Load(t); node != nil; node = node.next {
		out = append(out, node.value)
	}
	return out
}

// Clear removes all elements atomically.
func (s *Stack) Clear(t *sched.Thread) {
	s.head.Store(t, nil)
}

// TryPopAll removes every element atomically (a single swap of the head)
// and returns them top first.
func (s *Stack) TryPopAll(t *sched.Thread) []int {
	h := s.head.Swap(t, nil)
	var out []int
	for node := h; node != nil; node = node.next {
		out = append(out, node.value)
	}
	return out
}
