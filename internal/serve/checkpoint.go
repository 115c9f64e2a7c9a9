package serve

import (
	"fmt"
	"sort"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/telemetry"
)

// Checkpoint is the durable snapshot of a running service: the stream
// tracker (thread discipline and the count of events covered), every
// partition's frontier and residual window, and the backpressure bookkeeping.
// It is written atomically (obsfile.AtomicWriteJSON), so a crash mid-write
// leaves the previous checkpoint intact. After Resume the producer replays
// its stream from the start and New's server skips the Tracker.Events leading
// events: delivery is at least once, and what the checkpoint covers is applied
// once.
type Checkpoint struct {
	Version    int                  `json:"version"`
	Model      string               `json:"model"`
	WindowOps  int                  `json:"window_ops"` // flush threshold; must match on resume for identical verdicts
	Tracker    obsfile.TrackerState `json:"tracker"`
	Routed     int64                `json:"routed"`
	Shed       int64                `json:"shed,omitempty"`
	Poisoned   []string             `json:"poisoned,omitempty"`
	Partitions []PartCheckpoint     `json:"partitions,omitempty"`
	// The two halves of resolveKey's whole-object guard: the stream held an
	// operation routed to a named partition / one the model declared
	// whole-object. Absent in files written before they were persisted.
	SawNamedKey     bool `json:"saw_named_key,omitempty"`
	SawDerivedWhole bool `json:"saw_derived_whole,omitempty"`
}

// checkpointVersion guards the on-disk format. Version 2 writes frontier
// states as the model's own state strings, where version 1 held each in the
// form of a model-declared JSON codec.
const checkpointVersion = 2

// PartCheckpoint is one partition's durable state.
type PartCheckpoint struct {
	Key      string      `json:"key"`
	Frontier [][]byte    `json:"frontier"` // the model states, byte for byte (base64 in the file: a state need not be UTF-8)
	Window   []eventJSON `json:"window,omitempty"`
	Ops      int64       `json:"ops"`
	Windows  int64       `json:"windows"`
	Failed   bool        `json:"failed,omitempty"`
	Err      string      `json:"error,omitempty"`
}

// eventJSON serializes one window event.
type eventJSON struct {
	T   int    `json:"t"`
	K   int    `json:"k"` // history.Kind
	Op  string `json:"op,omitempty"`
	Res string `json:"res,omitempty"`
	I   int    `json:"i"`
}

func toEventJSON(e history.Event) eventJSON {
	return eventJSON{T: e.Thread, K: int(e.Kind), Op: e.Op, Res: e.Result, I: e.Index}
}

func (e eventJSON) event() history.Event {
	return history.Event{Thread: e.T, Kind: history.Kind(e.K), Op: e.Op, Result: e.Res, Index: e.I}
}

// snapshot captures the worker's partitions (ctlSnapshot handler; runs on
// the worker goroutine, with ingest stalled by the caller's barrier).
func (w *worker) snapshot() []PartCheckpoint {
	var out []PartCheckpoint
	for _, key := range w.sortedKeys() {
		p := w.parts[key]
		pc := PartCheckpoint{Key: p.key, Ops: p.ops, Windows: p.windows, Failed: p.failed, Err: p.errMsg}
		if p.inc != nil { // nil when the model's Init failed; pc.Err says so
			for _, st := range p.inc.FrontierStates() {
				pc.Frontier = append(pc.Frontier, []byte(st))
			}
		}
		for _, e := range p.window {
			pc.Window = append(pc.Window, toEventJSON(e))
		}
		out = append(out, pc)
	}
	return out
}

// Checkpoint writes a durable snapshot now (independent of CheckpointEvery).
func (s *Server) Checkpoint() error {
	unlock := s.lockWorld()
	defer unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.checkpointStopped()
}

// autoCheckpoint is the cadence-triggered checkpoint, called by a connection
// after it has released its own lock (cpTickN's contract): lockWorld may then
// acquire every conn lock without deadlock.
func (s *Server) autoCheckpoint() error {
	unlock := s.lockWorld()
	defer unlock()
	if s.closed.Load() {
		return nil // a concurrent Close already snapshotted
	}
	return s.checkpointStopped()
}

// checkpointStopped performs the barrier snapshot: with the world stopped no
// new event enters, and the ctlSnapshot control drains each worker's queue
// before it replies, so the snapshot is a consistent cut — exactly the events
// the tracker has accepted, all folded into partition state. The caller must
// hold the world lock.
func (s *Server) checkpointStopped() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	replies := s.broadcast(ctlMsg{kind: ctlSnapshot})
	s.trackerMu.Lock()
	cp := Checkpoint{
		Version:   checkpointVersion,
		Model:     s.cfg.Model.Name,
		WindowOps: s.cfg.windowOps(),
		Tracker:   s.tracker.State(),
		Routed:    s.tel.Get(telemetry.ServeEventsRouted),
		Shed:      s.tel.Get(telemetry.ServeEventsShed),

		SawNamedKey:     s.sawNamedKey,
		SawDerivedWhole: s.sawDerivedWhole,
	}
	s.trackerMu.Unlock()
	s.poisoned.Range(func(k, _ any) bool {
		cp.Poisoned = append(cp.Poisoned, k.(string))
		return true
	})
	sort.Strings(cp.Poisoned)
	for _, r := range replies {
		cp.Partitions = append(cp.Partitions, r.parts...)
	}
	sort.Slice(cp.Partitions, func(i, j int) bool { return cp.Partitions[i].Key < cp.Partitions[j].Key })
	if err := obsfile.AtomicWriteJSON(s.cfg.CheckpointPath, &cp); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.tel.Add(telemetry.ServeCheckpoints, 1)
	return nil
}

// Load reads a checkpoint file; one of another version is refused with both
// numbers before any other field is decoded.
func Load(path string) (*Checkpoint, error) {
	var cp Checkpoint
	if err := core.LoadVersioned(path, "serve checkpoint", checkpointVersion, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// resumeKey is the part of a Config a checkpoint must have been written
// under, in the checkpoint's own field names: the model, and the window size,
// which decides at which cuts windows are retired. Nothing else in Config is
// compared because nothing else reaches a restored verdict: Workers,
// QueueDepth and Backpressure move events without deciding any.
type resumeKey struct {
	Model     string `json:"model"`
	WindowOps int    `json:"window_ops"`
}

// Resume returns a copy of cfg configured to restore from the checkpoint at
// cfg.CheckpointPath: New rebuilds the partition state and the first
// Tracker.Events events of the replayed stream are skipped at ingest.
func Resume(cfg Config) (Config, error) {
	cp, err := Load(cfg.CheckpointPath)
	if err != nil {
		return cfg, err
	}
	cfg.resume = cp
	return cfg, nil
}

// restore rebuilds service state from a checkpoint; the workers are not yet
// running, so partition state is written into their maps directly.
func (s *Server) restore(cp *Checkpoint) error {
	if err := core.ResumeMismatch("checkpoint", resumeKey{cp.Model, cp.WindowOps},
		resumeKey{s.cfg.Model.Name, s.cfg.windowOps()}); err != nil {
		return err
	}
	s.tracker = obsfile.RestoreStreamTracker(cp.Tracker)
	// The producer replays the stream from the start; what the checkpoint
	// already ingested is skipped.
	s.skip = cp.Tracker.Events
	// The counts continue where the checkpointed server stopped (and a shared
	// collector gets them too, so it stays the sum of its servers' Stats).
	s.tel.Add(telemetry.ServeEventsIngested, cp.Tracker.Events)
	s.tel.Add(telemetry.ServeEventsRouted, cp.Routed)
	s.tel.Add(telemetry.ServeEventsShed, cp.Shed)
	s.tel.Add(telemetry.ServeEventsApplied, cp.Routed)
	for _, k := range cp.Poisoned {
		s.poison(k)
	}
	for _, pc := range cp.Partitions {
		inc, err := monitor.NewIncremental(s.cfg.Model, s.mopts)
		if err != nil {
			return err
		}
		states := make([]string, len(pc.Frontier))
		for i, st := range pc.Frontier {
			states[i] = string(st)
		}
		inc.SetFrontier(states)
		p := &part{key: pc.Key, inc: inc, ops: pc.Ops, windows: pc.Windows, failed: pc.Failed, errMsg: pc.Err}
		for _, ej := range pc.Window {
			e := ej.event()
			p.window = append(p.window, e)
			if e.Kind == history.Call {
				p.open++
			} else {
				p.open--
				p.completed++
			}
		}
		w := s.workers[s.workerFor(pc.Key)]
		w.parts[pc.Key] = p
		s.tel.Add(telemetry.ServePartitions, 1)
	}
	s.sawNamedKey = cp.SawNamedKey || s.partitionHint(cp)
	s.sawDerivedWhole = cp.SawDerivedWhole
	return nil
}

// partitionHint reports whether the checkpoint shows named partitions: what
// a file written before the guard bits were persisted still says about them.
func (s *Server) partitionHint(cp *Checkpoint) bool {
	for _, pc := range cp.Partitions {
		if pc.Key != "" {
			return true
		}
	}
	return false
}
