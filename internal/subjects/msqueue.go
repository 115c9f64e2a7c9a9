package subjects

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// MSQueue is the Michael–Scott two-lock-free queue: a singly linked list
// with a dummy head node, head and tail pointers advanced by CAS, and the
// classic helping step that swings a lagging tail forward. Enqueue
// linearizes at the CAS that links the new node; TryDequeue at the CAS that
// advances head (or at the next-pointer load that observes emptiness).
// Nodes are never recycled, so there is no ABA problem.
type MSQueue struct {
	head *vsync.Atomic[*msNode]
	tail *vsync.Atomic[*msNode]
}

type msNode struct {
	value int
	next  *vsync.Atomic[*msNode]
}

func newMSNode(t *sched.Thread, v int) *msNode {
	return &msNode{value: v, next: vsync.NewAtomic[*msNode](t, "MSQueue.node.next", nil)}
}

// NewMSQueue constructs an empty queue (head and tail point at a dummy).
func NewMSQueue(t *sched.Thread) *MSQueue {
	dummy := newMSNode(t, 0)
	return &MSQueue{
		head: vsync.NewAtomic(t, "MSQueue.head", dummy),
		tail: vsync.NewAtomic(t, "MSQueue.tail", dummy),
	}
}

// Enqueue appends v at the tail.
func (q *MSQueue) Enqueue(t *sched.Thread, v int) {
	n := newMSNode(t, v)
	for {
		tail := q.tail.Load(t)
		next := tail.next.Load(t)
		if next == nil {
			if tail.next.CompareAndSwap(t, nil, n) {
				// Swing the tail; losing the race is fine (someone helped).
				q.tail.CompareAndSwap(t, tail, n)
				return
			}
		} else {
			// Tail lags behind; help swing it forward and retry.
			q.tail.CompareAndSwap(t, tail, next)
		}
	}
}

// TryDequeue removes and returns the oldest element; ok is false on an
// empty queue.
func (q *MSQueue) TryDequeue(t *sched.Thread) (v int, ok bool) {
	for {
		head := q.head.Load(t)
		next := head.next.Load(t)
		if next == nil {
			return 0, false
		}
		tail := q.tail.Load(t)
		if head == tail {
			// Help a lagging enqueuer before overtaking the tail.
			q.tail.CompareAndSwap(t, tail, next)
		}
		if q.head.CompareAndSwap(t, head, next) {
			return next.value, true
		}
	}
}

// TryPeek returns the oldest element without removing it.
func (q *MSQueue) TryPeek(t *sched.Thread) (v int, ok bool) {
	next := q.head.Load(t).next.Load(t)
	if next == nil {
		return 0, false
	}
	return next.value, true
}

// IsEmpty reports whether the queue is empty. It linearizes at the next
// load: a dequeued node always has a non-nil next pointer, so observing nil
// proves the node was still the dummy at that instant.
func (q *MSQueue) IsEmpty(t *sched.Thread) bool {
	return q.head.Load(t).next.Load(t) == nil
}

// MSQueuePre seeds the classic lost-update defect: TryDequeue publishes the
// new head with a plain store instead of a CAS. Two concurrent dequeuers can
// both load the same head, both observe the same next node, and both store —
// returning the same element twice while silently dropping none, one, or
// more of the following elements. Serial executions are unaffected (a single
// dequeuer never observes an intervening store), so phase 1 synthesizes the
// correct FIFO spec and phase 2 convicts the duplicate-dequeue history.
// Minimal failing scenario: init Enqueue(1);Enqueue(2), thread A TryDequeue,
// thread B TryDequeue — both return 1. The corrected MSQueue advances head
// with CompareAndSwap, so the second dequeuer's attempt fails and retries.
type MSQueuePre struct {
	MSQueue
}

// NewMSQueuePre constructs the defect-seeded variant.
func NewMSQueuePre(t *sched.Thread) *MSQueuePre {
	dummy := newMSNode(t, 0)
	return &MSQueuePre{MSQueue{
		head: vsync.NewAtomic(t, "MSQueue.head", dummy),
		tail: vsync.NewAtomic(t, "MSQueue.tail", dummy),
	}}
}

// TryDequeue removes the oldest element — with the seeded bug: the head
// pointer is advanced by an unconditional store.
func (q *MSQueuePre) TryDequeue(t *sched.Thread) (v int, ok bool) {
	head := q.head.Load(t)
	next := head.next.Load(t)
	if next == nil {
		return 0, false
	}
	q.head.Store(t, next) // BUG: lost update; must be CompareAndSwap
	return next.value, true
}
