// Package subjects is the Go-native subject corpus: idiomatic concurrent
// objects — a Michael–Scott queue, a Treiber stack with elimination backoff,
// a sharded map, and a channel-based pipeline stage — each as a correct
// implementation and a defect-seeded sibling (the "Pre" variant, in the
// spirit of the paper's pre-release .NET bugs). The pipeline also has a
// relaxed variant whose one nondeterministic operation is correct only once
// declared so (Options.RelaxedOps).
//
// The corpus serves three masters: it is the checker's dogfood (every
// variant comes with a directed test whose verdict is known), the coverage-
// guided generator's hunting ground (Generate must rediscover every seeded
// bug from the op universes alone), and the cross-check harness's subject
// pool (explorer histories are re-judged by the WGL monitor and the naive
// enumerator and must agree with the spec-lookup verdicts).
package subjects

import (
	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/monitor"
	"lineup/internal/sched"
)

// Entry bundles one subject family: the correct implementation, its
// defect-seeded sibling (and, for the pipeline, its relaxed one), the
// checking configuration they need, and directed tests with known verdicts.
type Entry struct {
	// Name is the family name, e.g. "MSQueue".
	Name string
	// Subject is the correct implementation.
	Subject *core.Subject
	// Pre is the defect-seeded sibling; the checker must convict it.
	Pre *core.Subject
	// Relaxed, when non-nil, is the deliberately weakened sibling: it fails
	// linearizability, and passes once RelaxedOps are wildcarded.
	Relaxed *core.Subject
	// RelaxedOps lists operations of Relaxed whose results are declared
	// nondeterministic (wildcarded).
	RelaxedOps []string
	// Bound is the preemption bound the directed tests need (0 selects the
	// checker default).
	Bound int
	// Model is the executable sequential model of the strict vocabulary,
	// for monitor-based cross-checking.
	Model *monitor.Model
	// StrictTest passes on Subject and fails on Pre.
	StrictTest *core.Test
	// RelaxedTest fails strictly on Relaxed but passes with RelaxedOps.
	RelaxedTest *core.Test
}

// Registry returns the subject corpus in display order.
func Registry() []*Entry {
	return []*Entry{
		msQueueEntry(),
		elimStackEntry(),
		shardedMapEntry(),
		pipelineEntry(),
	}
}

// Find returns the corpus entry with the given family name.
func Find(name string) (*Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// --- MSQueue ---

type queueAPI interface {
	Enqueue(t *sched.Thread, v int)
	TryDequeue(t *sched.Thread) (int, bool)
	TryPeek(t *sched.Thread) (int, bool)
	IsEmpty(t *sched.Thread) bool
}

type countAPI interface {
	Count(t *sched.Thread) int
}

func qEnqueue(v int) core.Op {
	return core.Op{Method: "Enqueue", Args: collections.Int(v), Run: func(t *sched.Thread, obj any) string {
		obj.(queueAPI).Enqueue(t, v)
		return collections.OK
	}}
}

func qTryDequeue() core.Op {
	return core.Op{Method: "TryDequeue", Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(queueAPI).TryDequeue(t))
	}}
}

func qTryPeek() core.Op {
	return core.Op{Method: "TryPeek", Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(queueAPI).TryPeek(t))
	}}
}

func qIsEmpty() core.Op {
	return core.Op{Method: "IsEmpty", Run: func(t *sched.Thread, obj any) string {
		return collections.Bool(obj.(queueAPI).IsEmpty(t))
	}}
}

func opCount() core.Op {
	return core.Op{Method: "Count", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(countAPI).Count(t))
	}}
}

func queueOps() []core.Op {
	return []core.Op{qEnqueue(1), qEnqueue(2), qEnqueue(3), qTryDequeue(), qTryPeek(), qIsEmpty()}
}

func msQueueEntry() *Entry {
	files := []string{"internal/subjects/msqueue.go"}
	return &Entry{
		Name: "MSQueue",
		Subject: &core.Subject{
			Name:        "MSQueue",
			New:         func(t *sched.Thread) any { return NewMSQueue(t) },
			Ops:         queueOps(),
			SourceFiles: files,
		},
		Pre: &core.Subject{
			Name:        "MSQueue(Pre)",
			New:         func(t *sched.Thread) any { return NewMSQueuePre(t) },
			Ops:         queueOps(),
			SourceFiles: files,
		},
		Bound: 2,
		Model: monitor.QueueModel(),
		// Two concurrent dequeuers of a two-element queue: the Pre variant's
		// store-published head lets both return the front element.
		StrictTest: &core.Test{
			Init: []core.Op{qEnqueue(1), qEnqueue(2)},
			Rows: [][]core.Op{{qTryDequeue()}, {qTryDequeue()}},
		},
	}
}

// --- ElimStack ---

type stackAPI interface {
	Push(t *sched.Thread, v int)
	TryPop(t *sched.Thread) (int, bool)
	TryPeek(t *sched.Thread) (int, bool)
	Count(t *sched.Thread) int
	IsEmpty(t *sched.Thread) bool
}

func sPush(v int) core.Op {
	return core.Op{Method: "Push", Args: collections.Int(v), Run: func(t *sched.Thread, obj any) string {
		obj.(stackAPI).Push(t, v)
		return collections.OK
	}}
}

func sTryPop() core.Op {
	return core.Op{Method: "TryPop", Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(stackAPI).TryPop(t))
	}}
}

func sTryPeek() core.Op {
	return core.Op{Method: "TryPeek", Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(stackAPI).TryPeek(t))
	}}
}

func sIsEmpty() core.Op {
	return core.Op{Method: "IsEmpty", Run: func(t *sched.Thread, obj any) string {
		return collections.Bool(obj.(stackAPI).IsEmpty(t))
	}}
}

func stackOps() []core.Op {
	return []core.Op{sPush(1), sPush(2), sPush(3), sTryPop(), sTryPeek(), opCount(), sIsEmpty()}
}

func elimStackEntry() *Entry {
	files := []string{"internal/subjects/elimstack.go"}
	return &Entry{
		Name: "ElimStack",
		Subject: &core.Subject{
			Name:        "ElimStack",
			New:         func(t *sched.Thread) any { return NewElimStack(t) },
			Ops:         stackOps(),
			SourceFiles: files,
		},
		Pre: &core.Subject{
			Name:        "ElimStack(Pre)",
			New:         func(t *sched.Thread) any { return NewElimStackPre(t) },
			Ops:         stackOps(),
			SourceFiles: files,
		},
		// The conviction interleaving parks the pusher in the elimination
		// slot between two poppers' loads and commits, which costs one more
		// preemption than the default bound allows.
		Bound: 3,
		Model: monitor.StackModel(),
		// A pusher parked in the elimination slot between two poppers: the
		// first pop's commit fails the push's CAS, the second pop claims the
		// offer — and the Pre variant's unconditional withdrawal then pushes
		// the already-delivered value again, so the final pop re-pops it.
		StrictTest: &core.Test{
			Init:  []core.Op{sPush(0), sPush(5)},
			Rows:  [][]core.Op{{sPush(1)}, {sTryPop()}, {sTryPop()}},
			Final: []core.Op{sTryPop()},
		},
	}
}

// --- ShardedMap ---

type mapAPI interface {
	Put(t *sched.Thread, k, v int)
	Get(t *sched.Thread, k int) (int, bool)
	Delete(t *sched.Thread, k int) bool
	Len(t *sched.Thread) int
}

func mPut(k, v int) core.Op {
	return core.Op{Method: "Put", Args: collections.Int(k) + "," + collections.Int(v), Run: func(t *sched.Thread, obj any) string {
		obj.(mapAPI).Put(t, k, v)
		return collections.OK
	}}
}

func mGet(k int) core.Op {
	return core.Op{Method: "Get", Args: collections.Int(k), Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(mapAPI).Get(t, k))
	}}
}

func mDelete(k int) core.Op {
	return core.Op{Method: "Delete", Args: collections.Int(k), Run: func(t *sched.Thread, obj any) string {
		return collections.Bool(obj.(mapAPI).Delete(t, k))
	}}
}

func mLen() core.Op {
	return core.Op{Method: "Len", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(mapAPI).Len(t))
	}}
}

func mapOps() []core.Op {
	return []core.Op{mPut(0, 10), mPut(1, 20), mGet(0), mGet(1), mDelete(0), mDelete(1), mLen()}
}

func shardedMapEntry() *Entry {
	files := []string{"internal/subjects/shardedmap.go"}
	return &Entry{
		Name: "ShardedMap",
		Subject: &core.Subject{
			Name:        "ShardedMap",
			New:         func(t *sched.Thread) any { return NewShardedMap(t) },
			Ops:         mapOps(),
			SourceFiles: files,
		},
		Pre: &core.Subject{
			Name:        "ShardedMap(Pre)",
			New:         func(t *sched.Thread) any { return NewShardedMapPre(t) },
			Ops:         mapOps(),
			SourceFiles: files,
		},
		Bound: 2,
		Model: MapModel(),
		// Two fresh Puts on different shards race the Pre variant's unlocked
		// size bump; the final Len observes the lost increment.
		StrictTest: &core.Test{
			Rows:  [][]core.Op{{mPut(0, 10)}, {mPut(1, 20)}},
			Final: []core.Op{mLen()},
		},
	}
}

// --- Pipeline ---

type pipeAPI interface {
	Send(t *sched.Thread, v int)
	TrySend(t *sched.Thread, v int) bool
	Process(t *sched.Thread) int
	TryRecv(t *sched.Thread) (int, bool)
}

type pipeLenAPI interface {
	Len(t *sched.Thread) int
}

func pSend(v int) core.Op {
	return core.Op{Method: "Send", Args: collections.Int(v), Run: func(t *sched.Thread, obj any) string {
		obj.(pipeAPI).Send(t, v)
		return collections.OK
	}}
}

func pTrySend(v int) core.Op {
	return core.Op{Method: "TrySend", Args: collections.Int(v), Run: func(t *sched.Thread, obj any) string {
		return collections.Bool(obj.(pipeAPI).TrySend(t, v))
	}}
}

func pProcess() core.Op {
	return core.Op{Method: "Process", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(pipeAPI).Process(t))
	}}
}

func pTryRecv() core.Op {
	return core.Op{Method: "TryRecv", Run: func(t *sched.Thread, obj any) string {
		return collections.TryInt(obj.(pipeAPI).TryRecv(t))
	}}
}

func pLen() core.Op {
	return core.Op{Method: "Len", Run: func(t *sched.Thread, obj any) string {
		return collections.Int(obj.(pipeLenAPI).Len(t))
	}}
}

func pipelineOps() []core.Op {
	return []core.Op{pSend(1), pTrySend(1), pTrySend(2), pProcess(), pTryRecv()}
}

func pipelineEntry() *Entry {
	files := []string{"internal/subjects/pipeline.go", "internal/vsync/chan.go"}
	return &Entry{
		Name: "Pipeline",
		Subject: &core.Subject{
			Name:        "Pipeline",
			New:         func(t *sched.Thread) any { return NewPipeline(t) },
			Ops:         pipelineOps(),
			SourceFiles: files,
		},
		Pre: &core.Subject{
			Name:        "Pipeline(Pre)",
			New:         func(t *sched.Thread) any { return NewPipelinePre(t) },
			Ops:         pipelineOps(),
			SourceFiles: files,
		},
		Relaxed: &core.Subject{
			Name:        "Pipeline(Relaxed)",
			New:         func(t *sched.Thread) any { return NewPipelineRelaxed(t) },
			Ops:         append(pipelineOps(), pLen()),
			SourceFiles: files,
		},
		Bound:      2,
		RelaxedOps: []string{"Len()"},
		Model:      PipelineModel(),
		// Two concurrent TrySends into a single-slot input: the Pre variant's
		// check-then-act lets both pass the room check, and the loser blocks
		// inside an operation that must never block — a stuck history whose
		// pending TrySend has no stuck serial witness.
		StrictTest: &core.Test{
			Rows: [][]core.Op{{pTrySend(1)}, {pTrySend(2)}},
		},
		// Len sums the two buffers under separate locks; a value in flight
		// inside Process is invisible to both, so the total is genuinely
		// nondeterministic and is declared relaxed (wildcarded) rather than
		// explained by reordering.
		RelaxedTest: &core.Test{
			Init: []core.Op{pSend(1)},
			Rows: [][]core.Op{{pProcess()}, {pLen()}},
		},
	}
}
