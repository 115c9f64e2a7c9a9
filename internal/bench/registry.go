// Package bench hosts the evaluation harness: the registry of the 13
// classes of Table 1 (correct and "(Pre)" variants with their invocation
// universes and root-cause annotations), line counting for Table 1, and the
// row formatters used by cmd/lineup and the repository benchmarks to
// regenerate the paper's tables.
package bench

import (
	"fmt"

	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/sched"
)

// Cause identifies a root cause of Table 2 (A..G bugs, H..J intentional
// nondeterminism, K..L intentional nonlinearizability).
type Cause string

// Root causes of Table 2.
const (
	CauseA Cause = "A" // ManualResetEvent(Pre): CAS typo re-reads state (Fig. 9)
	CauseB Cause = "B" // BlockingCollection(Pre): TryTake lock acquire times out (Fig. 1)
	CauseC Cause = "C" // ConcurrentStack(Pre): TryPopRange assembled from single pops
	CauseD Cause = "D" // SemaphoreSlim(Pre): waiter published after monitor release
	CauseE Cause = "E" // CountdownEvent(Pre): unsynchronized Signal decrement
	CauseF Cause = "F" // Lazy(Pre): value factory can run twice
	CauseG Cause = "G" // TaskCompletionSource(Pre): check-then-act completion
	CauseH Cause = "H" // ConcurrentBag: weak-snapshot Count/ToArray (intentional)
	CauseI Cause = "I" // BlockingCollection: Count lags contents (intentional)
	CauseJ Cause = "J" // BlockingCollection: TryTake count fast path (intentional)
	CauseK Cause = "K" // BlockingCollection: CompleteAdding effect after return (intentional)
	CauseL Cause = "L" // Barrier: SignalAndWait is inherently non-serial (intentional)
)

// Classification buckets of Section 5.2.
type Classification int

const (
	// Bug marks a real implementation error (fixed by the developers).
	Bug Classification = iota
	// Nondeterminism marks intentional nondeterministic behavior.
	Nondeterminism
	// Nonlinearizable marks intentionally non-linearizable behavior.
	Nonlinearizable
)

// Classify buckets a root cause as in Section 5.2.
func Classify(c Cause) Classification {
	switch c {
	case CauseH, CauseI, CauseJ:
		return Nondeterminism
	case CauseK, CauseL:
		return Nonlinearizable
	default:
		return Bug
	}
}

// Entry is one row of the registry: a class with its subjects and its
// expected Table 2 outcome.
type Entry struct {
	// Subject is the corrected (Beta 2-like) implementation.
	Subject *core.Subject
	// Pre is the defect-seeded CTP-like variant (nil if the class had no
	// (Pre) version under test).
	Pre *core.Subject
	// Bound is the preemption bound used for this class's Table 2 runs (the
	// paper's PB column: "2, except where it performed unacceptably slow" —
	// and some seeded defects need deeper schedules; see the ablation
	// benchmark).
	Bound int
	// Causes are the root causes expected on the corrected subject
	// (intentional nondeterminism/nonlinearizability that was documented
	// rather than fixed).
	Causes []Cause
	// PreCauses are the root causes expected on the (Pre) subject, in
	// addition to Causes that the class retains.
	PreCauses []Cause
}

// op builds a core.Op from a method name, rendered arguments, and body.
func op(method, args string, run func(t *sched.Thread, obj any) string) core.Op {
	return core.Op{Method: method, Args: args, Run: run}
}

// ----- class vocabularies (a class and its (Pre) form are one type, so one
// invocation universe serves both) -----

func queueOps() []core.Op {
	return []core.Op{
		op("Count", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.Queue).Count(t)) }),
		op("IsEmpty", "", func(t *sched.Thread, o any) string { return collections.Bool(o.(*collections.Queue).IsEmpty(t)) }),
		op("Enqueue", "10", func(t *sched.Thread, o any) string { o.(*collections.Queue).Enqueue(t, 10); return collections.OK }),
		op("Enqueue", "20", func(t *sched.Thread, o any) string { o.(*collections.Queue).Enqueue(t, 20); return collections.OK }),
		op("ToArray", "", func(t *sched.Thread, o any) string { return collections.Ints(o.(*collections.Queue).ToArray(t)) }),
		op("TryDequeue", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Queue).TryDequeue(t)) }),
		op("TryPeek", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Queue).TryPeek(t)) }),
	}
}

func stackOps() []core.Op {
	return []core.Op{
		op("Clear", "", func(t *sched.Thread, o any) string { o.(*collections.Stack).Clear(t); return collections.OK }),
		op("Count", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.Stack).Count(t)) }),
		op("Push", "10", func(t *sched.Thread, o any) string { o.(*collections.Stack).Push(t, 10); return collections.OK }),
		op("Push", "20", func(t *sched.Thread, o any) string { o.(*collections.Stack).Push(t, 20); return collections.OK }),
		op("PushRange", "30,40", func(t *sched.Thread, o any) string {
			o.(*collections.Stack).PushRange(t, []int{30, 40})
			return collections.OK
		}),
		op("TryPop", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Stack).TryPop(t)) }),
		op("TryPopRange", "1", func(t *sched.Thread, o any) string { return collections.Ints(o.(*collections.Stack).TryPopRange(t, 1)) }),
		op("TryPopRange", "2", func(t *sched.Thread, o any) string { return collections.Ints(o.(*collections.Stack).TryPopRange(t, 2)) }),
		op("TryPopRange", "4", func(t *sched.Thread, o any) string { return collections.Ints(o.(*collections.Stack).TryPopRange(t, 4)) }),
		op("TryPeek", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Stack).TryPeek(t)) }),
		op("ToArray", "", func(t *sched.Thread, o any) string { return collections.Ints(o.(*collections.Stack).ToArray(t)) }),
	}
}

func mreOps() []core.Op {
	return []core.Op{
		op("Set", "", func(t *sched.Thread, o any) string {
			o.(*collections.ManualResetEventSlim).Set(t)
			return collections.OK
		}),
		op("Wait", "", func(t *sched.Thread, o any) string {
			o.(*collections.ManualResetEventSlim).Wait(t)
			return collections.OK
		}),
		op("Reset", "", func(t *sched.Thread, o any) string {
			o.(*collections.ManualResetEventSlim).Reset(t)
			return collections.OK
		}),
		op("IsSet", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.ManualResetEventSlim).IsSet(t))
		}),
		op("WaitOne", "0", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.ManualResetEventSlim).WaitOne(t))
		}),
	}
}

func semaphoreOps() []core.Op {
	return []core.Op{
		op("CurrentCount", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.SemaphoreSlim).CurrentCount(t))
		}),
		op("Release", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.SemaphoreSlim).Release(t, 1))
		}),
		op("Release", "2", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.SemaphoreSlim).Release(t, 2))
		}),
		op("Wait", "", func(t *sched.Thread, o any) string { o.(*collections.SemaphoreSlim).Wait(t); return collections.OK }),
		op("Wait", "0", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.SemaphoreSlim).WaitZero(t))
		}),
	}
}

func countdownOps() []core.Op {
	ops := []core.Op{
		op("IsSet", "", func(t *sched.Thread, o any) string { return collections.Bool(o.(*collections.CountdownEvent).IsSet(t)) }),
		op("Wait", "", func(t *sched.Thread, o any) string { o.(*collections.CountdownEvent).Wait(t); return collections.OK }),
		op("Wait", "0", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.CountdownEvent).WaitZero(t))
		}),
		op("CurrentCount", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.CountdownEvent).CurrentCount(t))
		}),
	}
	for _, x := range []int{1, 2} {
		x := x
		ops = append(ops,
			op("Signal", fmt.Sprint(x), func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.CountdownEvent).Signal(t, x))
			}),
			op("AddCount", fmt.Sprint(x), func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.CountdownEvent).AddCount(t, x))
			}),
			op("TryAddCount", fmt.Sprint(x), func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.CountdownEvent).TryAddCount(t, x))
			}),
		)
	}
	return ops
}

func lazyOps() []core.Op {
	return []core.Op{
		op("Value", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.Lazy).Value(t)) }),
		op("ToString", "", func(t *sched.Thread, o any) string { return o.(*collections.Lazy).ToString(t) }),
		op("IsValueCreated", "", func(t *sched.Thread, o any) string { return collections.Bool(o.(*collections.Lazy).IsValueCreated(t)) }),
	}
}

func tcsOps() []core.Op {
	return []core.Op{
		op("TrySetCanceled", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).TrySetCanceled(t))
		}),
		op("TrySetException", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).TrySetException(t))
		}),
		op("TrySetResult", "10", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).TrySetResult(t, 10))
		}),
		op("TrySetResult", "20", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).TrySetResult(t, 20))
		}),
		op("SetResult", "30", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).SetResult(t, 30))
		}),
		op("SetCanceled", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).SetCanceled(t))
		}),
		op("SetException", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.TaskCompletionSource).SetException(t))
		}),
		op("Wait", "", func(t *sched.Thread, o any) string { return o.(*collections.TaskCompletionSource).Wait(t) }),
		op("TryResult", "", func(t *sched.Thread, o any) string { return o.(*collections.TaskCompletionSource).TryResult(t) }),
	}
}

func bcOps() []core.Op {
	return []core.Op{
		op("Count", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.BlockingCollection).Count(t))
		}),
		op("ToArray", "", func(t *sched.Thread, o any) string {
			return collections.Ints(o.(*collections.BlockingCollection).ToArray(t))
		}),
		op("TryAdd", "10", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.BlockingCollection).TryAdd(t, 10))
		}),
		op("TryAdd", "20", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.BlockingCollection).TryAdd(t, 20))
		}),
		op("IsCompleted", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.BlockingCollection).IsCompleted(t))
		}),
		op("IsAddingCompleted", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.BlockingCollection).IsAddingCompleted(t))
		}),
		op("CompleteAdding", "", func(t *sched.Thread, o any) string {
			o.(*collections.BlockingCollection).CompleteAdding(t)
			return collections.OK
		}),
		op("Add", "30", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.BlockingCollection).Add(t, 30))
		}),
		op("Take", "", func(t *sched.Thread, o any) string {
			v, ok := o.(*collections.BlockingCollection).Take(t)
			return collections.TryInt(v, ok)
		}),
		op("TryTake", "", func(t *sched.Thread, o any) string {
			v, ok := o.(*collections.BlockingCollection).TryTake(t)
			return collections.TryInt(v, ok)
		}),
	}
}

func dictOps() []core.Op {
	ops := []core.Op{
		op("Count", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.Dictionary).Count(t)) }),
		op("IsEmpty", "", func(t *sched.Thread, o any) string { return collections.Bool(o.(*collections.Dictionary).IsEmpty(t)) }),
		op("Clear", "", func(t *sched.Thread, o any) string { o.(*collections.Dictionary).Clear(t); return collections.OK }),
	}
	for _, x := range []int{10, 20} {
		x := x
		xs := fmt.Sprint(x)
		ops = append(ops,
			op("TryAdd", xs, func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.Dictionary).TryAdd(t, x, x))
			}),
			op("TryRemove", xs, func(t *sched.Thread, o any) string {
				return collections.TryInt(o.(*collections.Dictionary).TryRemove(t, x))
			}),
			op("TryGet", xs, func(t *sched.Thread, o any) string {
				return collections.TryInt(o.(*collections.Dictionary).TryGetValue(t, x))
			}),
			op("GetOrAdd", xs, func(t *sched.Thread, o any) string {
				return collections.Int(o.(*collections.Dictionary).GetOrAdd(t, x, x))
			}),
			op("Set", xs, func(t *sched.Thread, o any) string {
				o.(*collections.Dictionary).Set(t, x, x+1)
				return collections.OK
			}),
			op("TryUpdate", xs, func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.Dictionary).TryUpdate(t, x, x+2, x))
			}),
			op("ContainsKey", xs, func(t *sched.Thread, o any) string {
				return collections.Bool(o.(*collections.Dictionary).ContainsKey(t, x))
			}),
		)
	}
	return ops
}

func bagOps() []core.Op {
	return []core.Op{
		op("Count", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.Bag).Count(t)) }),
		op("Add", "10", func(t *sched.Thread, o any) string { o.(*collections.Bag).Add(t, 10); return collections.OK }),
		op("Add", "20", func(t *sched.Thread, o any) string { o.(*collections.Bag).Add(t, 20); return collections.OK }),
		op("TryTake", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Bag).TryTake(t)) }),
		op("IsEmpty", "", func(t *sched.Thread, o any) string { return collections.Bool(o.(*collections.Bag).IsEmpty(t)) }),
		op("TryPeek", "", func(t *sched.Thread, o any) string { return collections.TryInt(o.(*collections.Bag).TryPeek(t)) }),
		op("ToArray", "", func(t *sched.Thread, o any) string { return collections.IntsSorted(o.(*collections.Bag).ToArray(t)) }),
	}
}

func ctsOps() []core.Op {
	return []core.Op{
		op("Cancel", "", func(t *sched.Thread, o any) string {
			o.(*collections.CancellationTokenSource).Cancel(t)
			return collections.OK
		}),
		op("IsCancellationRequested", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.CancellationTokenSource).IsCancellationRequested(t))
		}),
		op("Register", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.CancellationTokenSource).Register(t))
		}),
		op("WaitForCancel", "", func(t *sched.Thread, o any) string {
			o.(*collections.CancellationTokenSource).WaitForCancel(t)
			return collections.OK
		}),
	}
}

func barrierOps() []core.Op {
	return []core.Op{
		op("SignalAndWait", "", func(t *sched.Thread, o any) string {
			o.(*collections.Barrier).SignalAndWait(t)
			return collections.OK
		}),
		op("ParticipantsRemaining", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.Barrier).ParticipantsRemaining(t))
		}),
		op("RemoveParticipant", "", func(t *sched.Thread, o any) string {
			return collections.Bool(o.(*collections.Barrier).RemoveParticipant(t))
		}),
		op("CurrentPhaseNumber", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.Barrier).CurrentPhaseNumber(t))
		}),
		op("ParticipantCount", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.Barrier).ParticipantCount(t))
		}),
		op("AddParticipant", "", func(t *sched.Thread, o any) string {
			return collections.Int(o.(*collections.Barrier).AddParticipant(t))
		}),
	}
}

func linkedListOps() []core.Op {
	return []core.Op{
		op("Count", "", func(t *sched.Thread, o any) string { return collections.Int(o.(*collections.LinkedList).Count(t)) }),
		op("AddFirst", "10", func(t *sched.Thread, o any) string {
			o.(*collections.LinkedList).AddFirst(t, 10)
			return collections.OK
		}),
		op("AddLast", "20", func(t *sched.Thread, o any) string {
			o.(*collections.LinkedList).AddLast(t, 20)
			return collections.OK
		}),
		op("RemoveFirst", "", func(t *sched.Thread, o any) string {
			return collections.TryInt(o.(*collections.LinkedList).RemoveFirst(t))
		}),
		op("RemoveLast", "", func(t *sched.Thread, o any) string {
			return collections.TryInt(o.(*collections.LinkedList).RemoveLast(t))
		}),
		op("ToArray", "", func(t *sched.Thread, o any) string {
			return collections.Ints(o.(*collections.LinkedList).ToArray(t))
		}),
	}
}

// class completes a registry row from one class of internal/collections:
// the corrected subject named name, built by newSub, and, when newPre is not
// nil, its (Pre) form. A (Pre) defect is a seeded branch of its class: the
// same type from another constructor, so the two share the name (with
// "(Pre)" appended), the source file and the invocation universe.
func class[T any](name, file string, ops func() []core.Op, newSub, newPre func(*sched.Thread) T, e Entry) Entry {
	subject := func(name string, new func(*sched.Thread) T) *core.Subject {
		return &core.Subject{
			Name:        name,
			New:         func(t *sched.Thread) any { return new(t) },
			Ops:         ops(),
			SourceFiles: []string{"internal/collections/" + file},
		}
	}
	e.Subject = subject(name, newSub)
	if newPre != nil {
		e.Pre = subject(name+"(Pre)", newPre)
	}
	return e
}

// Registry returns the 13 classes of Table 1 with their (Pre) variants and
// expected root causes.
func Registry() []Entry {
	return []Entry{
		class("Lazy", "lazy.go", lazyOps, collections.NewLazy, collections.NewLazyPre,
			Entry{Bound: 2, PreCauses: []Cause{CauseF}}),
		class("ManualResetEvent", "mre.go", mreOps, collections.NewManualResetEventSlim, collections.NewManualResetEventSlimPre,
			Entry{Bound: 4, PreCauses: []Cause{CauseA}}), // the Fig. 9 interleaving needs four preemptions (see ablation)
		class("SemaphoreSlim", "semaphore.go", semaphoreOps,
			func(t *sched.Thread) *collections.SemaphoreSlim { return collections.NewSemaphoreSlim(t, 0) },
			func(t *sched.Thread) *collections.SemaphoreSlim { return collections.NewSemaphoreSlimPre(t, 0) },
			Entry{Bound: 2, PreCauses: []Cause{CauseD}}),
		class("CountdownEvent", "countdown.go", countdownOps,
			func(t *sched.Thread) *collections.CountdownEvent { return collections.NewCountdownEvent(t, 2) },
			func(t *sched.Thread) *collections.CountdownEvent { return collections.NewCountdownEventPre(t, 2) },
			Entry{Bound: 2, PreCauses: []Cause{CauseE}}),
		class("ConcurrentDictionary", "dictionary.go", dictOps, collections.NewDictionary, nil,
			Entry{Bound: 2}),
		class("ConcurrentQueue", "queue.go", queueOps, collections.NewQueue, collections.NewQueuePre,
			Entry{Bound: 2, PreCauses: []Cause{CauseB + "'"}}),
		class("ConcurrentStack", "stack.go", stackOps, collections.NewStack, collections.NewStackPre,
			Entry{Bound: 2, PreCauses: []Cause{CauseC}}),
		class("ConcurrentLinkedList", "linkedlist.go", linkedListOps, collections.NewLinkedList, nil,
			Entry{Bound: 2}),
		class("BlockingCollection", "blockingcollection.go", bcOps, collections.NewBlockingCollection, collections.NewBlockingCollectionPre,
			Entry{Bound: 2, Causes: []Cause{CauseI, CauseJ, CauseK}, PreCauses: []Cause{CauseB}}),
		class("ConcurrentBag", "bag.go", bagOps, collections.NewBag, nil,
			Entry{Bound: 2, Causes: []Cause{CauseH}}),
		class("TaskCompletionSource", "tcs.go", tcsOps, collections.NewTaskCompletionSource, collections.NewTaskCompletionSourcePre,
			Entry{Bound: 2, PreCauses: []Cause{CauseG}}),
		class("CancellationTokenSource", "cts.go", ctsOps, collections.NewCancellationTokenSource, nil,
			Entry{Bound: 2}),
		class("Barrier", "barrier.go", barrierOps,
			func(t *sched.Thread) *collections.Barrier { return collections.NewBarrier(t, 2) }, nil,
			Entry{Bound: 2, Causes: []Cause{CauseL}}),
	}
}

// Find returns the registry entry whose subject (or Pre subject) has the
// given name.
func Find(name string) (*core.Subject, *Entry, bool) {
	reg := Registry()
	for i := range reg {
		e := &reg[i]
		if e.Subject.Name == name {
			return e.Subject, e, true
		}
		if e.Pre != nil && e.Pre.Name == name {
			return e.Pre, e, true
		}
	}
	return nil, nil, false
}
