package subjects

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// ElimStack is a Treiber stack with a single-slot elimination backoff. A
// pusher whose CAS on the top pointer fails publishes its item in the
// exchange slot, yields once, and then tries to withdraw it; if the
// withdrawal CAS fails, a concurrent popper claimed the item and both
// operations complete without ever touching the stack. The exchange
// linearizes the push immediately before the pop at the popper's claiming
// CAS, which is exactly the pairing a sequential witness needs.
type ElimStack struct {
	top  *vsync.Atomic[*stackNode]
	slot *vsync.Atomic[*elimItem]
}

type stackNode struct {
	value int
	next  *stackNode
}

type elimItem struct {
	value int
}

// NewElimStack constructs an empty stack.
func NewElimStack(t *sched.Thread) *ElimStack {
	return &ElimStack{
		top:  vsync.NewAtomic[*stackNode](t, "ElimStack.top", nil),
		slot: vsync.NewAtomic[*elimItem](t, "ElimStack.slot", nil),
	}
}

// Push adds v to the top of the stack, eliminating against a concurrent
// pop when the top CAS is contended.
func (s *ElimStack) Push(t *sched.Thread, v int) {
	for {
		top := s.top.Load(t)
		if s.top.CompareAndSwap(t, top, &stackNode{value: v, next: top}) {
			return
		}
		// Contention: offer the item for elimination.
		it := &elimItem{value: v}
		if s.slot.CompareAndSwap(t, nil, it) {
			t.Yield()
			if !s.slot.CompareAndSwap(t, it, nil) {
				// A popper claimed the item; the exchange happened.
				return
			}
		}
	}
}

// TryPop removes and returns the top element, eliminating against a
// concurrent push when the top CAS is contended.
func (s *ElimStack) TryPop(t *sched.Thread) (v int, ok bool) {
	for {
		top := s.top.Load(t)
		if top == nil {
			return 0, false
		}
		if s.top.CompareAndSwap(t, top, top.next) {
			return top.value, true
		}
		// Contention: try to claim an eliminated push.
		if it := s.slot.Load(t); it != nil {
			if s.slot.CompareAndSwap(t, it, nil) {
				return it.value, true
			}
		}
	}
}

// TryPeek returns the top element without removing it.
func (s *ElimStack) TryPeek(t *sched.Thread) (v int, ok bool) {
	top := s.top.Load(t)
	if top == nil {
		return 0, false
	}
	return top.value, true
}

// Count returns the number of elements (single load of an immutable chain,
// so it is linearizable at the top load).
func (s *ElimStack) Count(t *sched.Thread) int {
	n := 0
	for node := s.top.Load(t); node != nil; node = node.next {
		n++
	}
	return n
}

// IsEmpty reports whether the stack is empty.
func (s *ElimStack) IsEmpty(t *sched.Thread) bool {
	return s.top.Load(t) == nil
}

// ElimStackPre seeds an elimination-protocol defect: the pusher withdraws
// its offer with a plain store instead of a CAS. If a popper claims the item
// between the pusher's yield and its withdrawal, the store still clears the
// slot — but the pusher then retries the push, so the eliminated value is
// delivered twice: once to the popper and once onto the stack. A later pop
// observes a value that was already popped. Serial executions never contend,
// so the elimination path is cold in phase 1 and the synthesized LIFO spec
// is correct; phase 2 convicts the duplicated value.
type ElimStackPre struct {
	ElimStack
}

// NewElimStackPre constructs the defect-seeded variant.
func NewElimStackPre(t *sched.Thread) *ElimStackPre {
	return &ElimStackPre{ElimStack{
		top:  vsync.NewAtomic[*stackNode](t, "ElimStack.top", nil),
		slot: vsync.NewAtomic[*elimItem](t, "ElimStack.slot", nil),
	}}
}

// Push adds v — with the seeded bug: the elimination offer is withdrawn
// unconditionally, so a concurrent claim goes unnoticed and v is pushed
// again.
func (s *ElimStackPre) Push(t *sched.Thread, v int) {
	for {
		top := s.top.Load(t)
		if s.top.CompareAndSwap(t, top, &stackNode{value: v, next: top}) {
			return
		}
		it := &elimItem{value: v}
		if s.slot.CompareAndSwap(t, nil, it) {
			t.Yield()
			s.slot.Store(t, nil) // BUG: must CAS(it, nil); a claimed item is pushed again
		}
	}
}
