package collections

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// BlockingCollection is the bounded producer/consumer wrapper of Table 1.
// Items live in a FIFO list under a monitor; Take blocks while the
// collection is empty; CompleteAdding closes the collection for producers.
//
// Two behaviors are deliberately preserved from the .NET class because the
// paper classifies them as intentional rather than bugs (Sections 5.2.2 and
// 5.3) — the developers "decided instead to change the official
// documentation":
//
//   - Root causes I and J (intentional nondeterminism): the element count
//     is maintained in a separate interlocked counter that is updated
//     *after* the monitor is released, as a timing optimization. Count can
//     therefore report 0 while the collection is observably non-empty, and
//     TryTake's count-based fast path can fail while an element is present.
//
//   - Root cause K (intentional nonlinearizability): CompleteAdding only
//     publishes the completion flag; its effect on a blocked Take
//     materializes later (in .NET, on an asynchronous path well after
//     CompleteAdding returned — here the wakeup is simply not delivered
//     within the operation, see DESIGN.md).
//
// The (Pre) form, built by NewBlockingCollectionPre, predates the counter
// and bounded capacity: its Count and IsCompleted read the items under the
// monitor, and its TryTake carries root cause B.
type BlockingCollection struct {
	pre       bool
	mu        *vsync.Mutex
	cond      *vsync.Cond
	items     *vsync.Cell[[]int]
	count     *vsync.AtomicInt // updated outside the monitor (I, J); nil in the (Pre) form
	completed *vsync.Atomic[bool]
	capacity  int // 0 = unbounded
}

// NewBlockingCollection constructs an empty, unbounded collection.
func NewBlockingCollection(t *sched.Thread) *BlockingCollection {
	return NewBoundedBlockingCollection(t, 0)
}

// NewBoundedBlockingCollection constructs a collection with the given
// capacity (0 = unbounded). On a bounded collection Add blocks while the
// collection is full, like the .NET boundedCapacity constructor.
func NewBoundedBlockingCollection(t *sched.Thread, capacity int) *BlockingCollection {
	mu := vsync.NewMutex(t, "BlockingCollection.lock")
	return &BlockingCollection{
		mu:        mu,
		cond:      vsync.NewCond(mu),
		items:     vsync.NewCell(t, "BlockingCollection.items", []int(nil)),
		count:     vsync.NewAtomicInt(t, "BlockingCollection.count", 0),
		completed: vsync.NewAtomic(t, "BlockingCollection.completed", false),
		capacity:  capacity,
	}
}

// NewBlockingCollectionPre constructs an empty (Pre) collection. It
// reproduces root cause B, the bug of Fig. 1 that the paper found in the
// .NET 4.0 community technology preview [19]: "the buggy behavior ... was
// caused by accidentally allowing a lock acquire in TryTake to time out".
// Under the checker the timed-out acquire is modeled by TryLock — the
// timeout elapses exactly in those schedules where the lock is observed
// held (see DESIGN.md) — so a TryTake racing with any other operation's
// critical section fails even when the collection is provably non-empty,
// which is the non-linearizable outcome of Fig. 1:
//
//	Thread 1            Thread 2
//	Add(200)            Add(400)
//	TryTake() = 200     TryTake() = FAIL
//
// The class otherwise matches the corrected BlockingCollection, including
// its blocking Take.
func NewBlockingCollectionPre(t *sched.Thread) *BlockingCollection {
	mu := vsync.NewMutex(t, "BlockingCollection.lock")
	return &BlockingCollection{
		pre:       true,
		mu:        mu,
		cond:      vsync.NewCond(mu),
		items:     vsync.NewCell(t, "BlockingCollection.items", []int(nil)),
		completed: vsync.NewAtomic(t, "BlockingCollection.completed", false),
	}
}

// BoundedCapacity returns the configured capacity (0 = unbounded).
func (b *BlockingCollection) BoundedCapacity(t *sched.Thread) int { return b.capacity }

// counted applies delta to the element counter once the monitor is
// released; the (Pre) form has no counter.
func (b *BlockingCollection) counted(t *sched.Thread, delta int) {
	if !b.pre {
		b.count.Add(t, delta) // deliberate: outside the lock (root causes I, J)
	}
}

// Add appends v, blocking while a bounded collection is full; it reports
// false if adding has been completed (the .NET version throws). The count
// update happens after the monitor is released.
func (b *BlockingCollection) Add(t *sched.Thread, v int) bool {
	if b.completed.Load(t) {
		return false
	}
	b.mu.Lock(t)
	for b.capacity > 0 && len(b.items.Load(t)) >= b.capacity {
		if b.completed.Load(t) {
			b.mu.Unlock(t)
			return false
		}
		b.cond.Wait(t)
	}
	b.items.Store(t, append(b.items.Load(t), v))
	b.cond.Broadcast(t)
	b.mu.Unlock(t)
	b.counted(t, 1)
	return true
}

// TryAdd appends v only if the collection has room right now; false if
// full or adding has been completed.
func (b *BlockingCollection) TryAdd(t *sched.Thread, v int) bool {
	if b.completed.Load(t) {
		return false
	}
	b.mu.Lock(t)
	if b.capacity > 0 && len(b.items.Load(t)) >= b.capacity {
		b.mu.Unlock(t)
		return false
	}
	b.items.Store(t, append(b.items.Load(t), v))
	b.cond.Broadcast(t)
	b.mu.Unlock(t)
	b.counted(t, 1)
	return true
}

// endTake ends a successful take under the monitor: it wakes producers
// blocked on a bounded collection (the (Pre) form has none), releases the
// monitor and decrements the count.
func (b *BlockingCollection) endTake(t *sched.Thread) {
	if !b.pre {
		b.cond.Broadcast(t)
	}
	b.mu.Unlock(t)
	b.counted(t, -1)
}

// Take removes and returns the head element, blocking while the collection
// is empty. It returns ok=false only if adding was completed and the
// collection drained — but note root cause K: a Take already blocked when
// CompleteAdding runs is not woken by it.
func (b *BlockingCollection) Take(t *sched.Thread) (v int, ok bool) {
	b.mu.Lock(t)
	for {
		items := b.items.Load(t)
		if len(items) > 0 {
			v = items[0]
			b.items.Store(t, items[1:])
			b.endTake(t)
			return v, true
		}
		if b.completed.Load(t) {
			b.mu.Unlock(t)
			return 0, false
		}
		b.cond.Wait(t)
	}
}

// TryTake removes and returns the head element without blocking. The
// count-based fast path is the source of root cause J. BUG (root cause B,
// Fig. 1, (Pre) only): the lock acquire may time out, making the operation
// fail regardless of the collection's contents.
func (b *BlockingCollection) TryTake(t *sched.Thread) (v int, ok bool) {
	if b.pre {
		if !b.mu.TryLock(t) { // BUG: Monitor.TryEnter(timeout) instead of Enter
			return 0, false
		}
	} else {
		if b.count.Load(t) == 0 { // deliberate stale fast path (root cause J)
			return 0, false
		}
		b.mu.Lock(t)
	}
	items := b.items.Load(t)
	if len(items) == 0 {
		b.mu.Unlock(t)
		return 0, false
	}
	b.items.Store(t, items[1:])
	b.endTake(t)
	return items[0], true
}

// Count returns the interlocked element counter (root cause I: it lags the
// true contents). The (Pre) form counts the items under the monitor.
func (b *BlockingCollection) Count(t *sched.Thread) int {
	if b.pre {
		b.mu.Lock(t)
		defer b.mu.Unlock(t)
		return len(b.items.Load(t))
	}
	return b.count.Load(t)
}

// ToArray returns a monitor-protected snapshot in FIFO order.
func (b *BlockingCollection) ToArray(t *sched.Thread) []int {
	b.mu.Lock(t)
	defer b.mu.Unlock(t)
	return append([]int(nil), b.items.Load(t)...)
}

// CompleteAdding closes the collection for producers. Deliberately (root
// cause K) it does not wake already-blocked takers; see the type comment.
func (b *BlockingCollection) CompleteAdding(t *sched.Thread) {
	b.completed.Store(t, true)
}

// IsAddingCompleted reports whether CompleteAdding has been called.
func (b *BlockingCollection) IsAddingCompleted(t *sched.Thread) bool {
	return b.completed.Load(t)
}

// IsCompleted reports whether adding is completed and the collection is
// empty.
func (b *BlockingCollection) IsCompleted(t *sched.Thread) bool {
	if !b.completed.Load(t) {
		return false
	}
	return b.Count(t) == 0
}
