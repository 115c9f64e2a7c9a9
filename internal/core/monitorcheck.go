package core

import (
	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/telemetry"
)

// witnessBackend abstracts the phase-2 witness decision procedure over the
// two checks of Fig. 5: complete histories, and the per-pending-operation
// stuck check of Definition 3. Definition 1 is not a backend's: only
// CheckWithMonitor decides it, through monitorBackend.witnessClassic.
type witnessBackend interface {
	witnessFull(h *history.History) (bool, error)
	witnessStuck(h *history.History, e history.Op) (bool, error)
}

// witnessBackend resolves the backend selected by the (validated) options:
// model replay when they name a model, else lookup in spec.
func (o Options) witnessBackend(spec *history.Spec) witnessBackend {
	if o.MonitorModel != nil {
		return monitorBackend{model: o.MonitorModel, tel: o.Telemetry}
	}
	return specBackend{spec: spec}
}

// specBackend is the paper's backend: witness existence is a lookup in the
// specification set synthesized by phase 1.
type specBackend struct{ spec *history.Spec }

func (b specBackend) witnessFull(h *history.History) (bool, error) {
	_, ok := b.spec.WitnessFull(h)
	return ok, nil
}

func (b specBackend) witnessStuck(h *history.History, e history.Op) (bool, error) {
	_, ok := b.spec.WitnessStuck(h, e)
	return ok, nil
}

// monitorBackend decides witness existence with the monitor's memoized
// Wing–Gong search against an executable model.
type monitorBackend struct {
	model *monitor.Model
	tel   *telemetry.Collector
}

func (b monitorBackend) check(h *history.History, mode monitor.Mode) (bool, error) {
	out, err := monitor.Check(b.model, h, monitor.Options{Mode: mode, Telemetry: b.tel})
	if err != nil {
		return false, err
	}
	return out.Linearizable, nil
}

func (b monitorBackend) witnessFull(h *history.History) (bool, error) {
	return b.check(h, monitor.ModeAuto)
}

func (b monitorBackend) witnessClassic(h *history.History) (bool, error) {
	return b.check(h, monitor.ModeClassic)
}

func (b monitorBackend) witnessStuck(h *history.History, e history.Op) (bool, error) {
	return b.check(monitor.Reduce(h, e), monitor.ModeGeneralized)
}

// CheckWithMonitor checks sub against an executable sequential model using
// the monitor as phase 2's witness backend: it enumerates the concurrent
// executions of sub on m and decides witness existence for every distinct
// history by model replay. No phase-1 serial enumeration runs — the model is
// the specification. ClassicOnly selects the original Definition 1 treatment
// of pending operations; it is the one place Definition 1 is decided.
func CheckWithMonitor(sub *Subject, model *monitor.Model, m *Test, opts RefOptions) (*Result, error) {
	opts.MonitorModel = model
	mode := modeGeneralized
	if opts.ClassicOnly {
		mode = modeClassic
	}
	return phase2(sub, m, nil, opts.Options, mode)
}

// RefOptions configures CheckWithMonitor.
type RefOptions struct {
	Options
	// ClassicOnly skips the stuck-history check, i.e. it applies the
	// original Definition 1 instead of the generalized Definition 3. It
	// exists to demonstrate the paper's Section 2.2.2: the classic
	// definition cannot detect erroneous blocking (Counter2's leaked lock),
	// while the generalized definition can.
	ClassicOnly bool
}
