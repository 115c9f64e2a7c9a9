package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// Queue is the corrected ConcurrentQueue: a FIFO queue of integers guarded
// by a single monitor, mirroring the lock-based structure of the .NET 4.0
// CTP implementation in which the paper found the Fig. 1 bug (the Beta 2
// rewrite is lock-free and segmented; a coarse monitor keeps the observable
// semantics identical, which is all the black-box checker sees). All
// operations are linearizable at their critical sections.
//
// NewQueuePre builds the (Pre) form, which derives Count from two counters
// instead (root cause B').
type Queue struct {
	pre   bool
	mu    *vsync.Mutex
	items *vsync.Cell[[]int]
	// enq and deq count the elements enqueued and dequeued; (Pre) only.
	enq *vsync.AtomicInt
	deq *vsync.AtomicInt
}

// NewQueue constructs an empty queue.
func NewQueue(t *sched.Thread) *Queue {
	return &Queue{
		mu:    vsync.NewMutex(t, "Queue.lock"),
		items: vsync.NewCell(t, "Queue.items", []int(nil)),
	}
}

// NewQueuePre constructs an empty (Pre) queue. It reproduces root cause B':
// the CTP queue derived Count from two separate interlocked counters
// (elements enqueued and elements dequeued) read one after the other
// without a consistent snapshot. A dequeue that lands between the two reads
// makes Count report a value — possibly negative — that the queue never
// held, which no serial witness justifies. (The corrected Queue computes
// Count under the monitor.)
func NewQueuePre(t *sched.Thread) *Queue {
	q := NewQueue(t)
	q.pre = true
	q.enq = vsync.NewAtomicInt(t, "Queue.enq", 0)
	q.deq = vsync.NewAtomicInt(t, "Queue.deq", 0)
	return q
}

// Enqueue appends v to the tail.
func (q *Queue) Enqueue(t *sched.Thread, v int) {
	q.mu.Lock(t)
	q.items.Store(t, append(q.items.Load(t), v))
	if q.pre {
		q.enq.Add(t, 1)
	}
	q.mu.Unlock(t)
}

// TryDequeue removes and returns the head element; ok is false if the queue
// is empty.
func (q *Queue) TryDequeue(t *sched.Thread) (v int, ok bool) {
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	items := q.items.Load(t)
	if len(items) == 0 {
		return 0, false
	}
	v = items[0]
	q.items.Store(t, items[1:])
	if q.pre {
		q.deq.Add(t, 1)
	}
	return v, true
}

// TryPeek returns the head element without removing it; ok is false if the
// queue is empty.
func (q *Queue) TryPeek(t *sched.Thread) (v int, ok bool) {
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	items := q.items.Load(t)
	if len(items) == 0 {
		return 0, false
	}
	return items[0], true
}

// Count returns the number of elements. BUG (root cause B', (Pre) only):
// the counters are read one after the other without a snapshot, so
// concurrent operations between the reads produce sizes the queue never had.
func (q *Queue) Count(t *sched.Thread) int {
	if q.pre {
		e := q.enq.Load(t)
		d := q.deq.Load(t) // BUG: torn read pair
		return e - d
	}
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	return len(q.items.Load(t))
}

// IsEmpty reports whether the queue is empty (the (Pre) form inherits
// Count's torn read).
func (q *Queue) IsEmpty(t *sched.Thread) bool {
	return q.Count(t) == 0
}

// ToArray returns a snapshot of the elements in FIFO order.
func (q *Queue) ToArray(t *sched.Thread) []int {
	q.mu.Lock(t)
	defer q.mu.Unlock(t)
	return append([]int(nil), q.items.Load(t)...)
}
