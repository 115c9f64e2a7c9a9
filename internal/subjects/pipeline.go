package subjects

import (
	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// pipelineDelta is the transformation the pipeline stage applies; any
// injective function works, an offset keeps results readable.
const pipelineDelta = 100

// Pipeline is a channel-based pipeline stage: producers Send values into a
// bounded input channel, a worker Process moves one value through the stage
// (receive, transform, emit into the bounded output channel), and consumers
// TryRecv transformed values from the output. Send blocks when the input
// buffer is full and Process blocks when it is empty — the subject exists to
// exercise stuck histories and the blocking (WitnessStuck) side of the
// checker, which the pointer-based subjects never reach.
type Pipeline struct {
	in  *vsync.Chan[int]
	out *vsync.Chan[int]
}

// NewPipeline constructs a stage with a single-slot input buffer (capacity 1
// maximizes blocking behavior at minimal state-space cost) and an output
// buffer deep enough (8) that Process never blocks on the output side in
// test-sized workloads, matching the sequential model's unbounded output.
func NewPipeline(t *sched.Thread) *Pipeline {
	return &Pipeline{
		in:  vsync.NewChan[int](t, "Pipeline.in", 1),
		out: vsync.NewChan[int](t, "Pipeline.out", 8),
	}
}

// Send feeds v into the stage, blocking while the input buffer is full.
func (p *Pipeline) Send(t *sched.Thread, v int) {
	p.in.Send(t, v)
}

// TrySend feeds v into the stage if the input buffer has room.
func (p *Pipeline) TrySend(t *sched.Thread, v int) bool {
	return p.in.TrySend(t, v)
}

// Process moves one value through the stage and returns the transformed
// value; it blocks while the input is empty and while the output is full.
func (p *Pipeline) Process(t *sched.Thread) int {
	v := p.in.Recv(t)
	w := v + pipelineDelta
	p.out.Send(t, w)
	return w
}

// TryRecv takes one transformed value from the output, if any.
func (p *Pipeline) TryRecv(t *sched.Thread) (v int, ok bool) {
	return p.out.TryRecv(t)
}

// PipelinePre seeds a check-then-act defect: TrySend tests for room with an
// unlocked length read and then calls the blocking Send. Two concurrent
// TrySends can both observe a free slot; the loser blocks inside Send even
// though TrySend must never block. Serially TrySend never blocks, so the
// phase-1 spec has no stuck witness for a pending TrySend and phase 2
// reports the stuck history (StuckNoWitness) — a liveness conviction rather
// than a wrong return value.
type PipelinePre struct {
	Pipeline
}

// NewPipelinePre constructs the defect-seeded variant.
func NewPipelinePre(t *sched.Thread) *PipelinePre {
	return &PipelinePre{Pipeline{
		in:  vsync.NewChan[int](t, "Pipeline.in", 1),
		out: vsync.NewChan[int](t, "Pipeline.out", 8),
	}}
}

// TrySend feeds v if the input looks non-full — with the seeded bug: the
// check and the send are not atomic, so the send can block.
func (p *PipelinePre) TrySend(t *sched.Thread, v int) bool {
	if p.in.Len(t) >= p.in.Cap() {
		return false
	}
	p.in.Send(t, v) // BUG: buffer may have filled since the check; Send blocks
	return true
}

// PipelineRelaxed extends Pipeline with a Len that sums the two buffer
// lengths under separate locks. A value in flight inside Process (received
// from the input but not yet emitted to the output) is invisible to both
// counts, so no reordering explains the totals — the operation is genuinely
// nondeterministic with respect to the sequential spec and is checked with a
// result wildcard (Options.RelaxedOps).
type PipelineRelaxed struct {
	Pipeline
}

// NewPipelineRelaxed constructs the relaxed variant.
func NewPipelineRelaxed(t *sched.Thread) *PipelineRelaxed {
	return &PipelineRelaxed{Pipeline{
		in:  vsync.NewChan[int](t, "Pipeline.in", 1),
		out: vsync.NewChan[int](t, "Pipeline.out", 8),
	}}
}

// Len reports the number of buffered values (in-flight values are missed).
func (p *PipelineRelaxed) Len(t *sched.Thread) int {
	return p.in.Len(t) + p.out.Len(t)
}
