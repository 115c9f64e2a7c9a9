package core

import (
	"fmt"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/telemetry"
)

// WitnessSearch selects phase 2's witness decision backend.
type WitnessSearch int

const (
	// WitnessSpec (the default) decides witness existence by lookup in the
	// phase-1 synthesized specification set, the Check(X, m) algorithm of
	// Fig. 5.
	WitnessSpec WitnessSearch = iota
	// WitnessMonitor decides witness existence by replaying candidate
	// linearizations of each observed history through an executable
	// sequential model with the internal/monitor Wing–Gong search. Phase 1
	// is not consulted: the model plays the role of the specification
	// directly, so no serial enumeration is needed.
	WitnessMonitor
)

// String renders the backend's text form.
func (w WitnessSearch) String() string {
	if w == WitnessMonitor {
		return "monitor"
	}
	return "spec"
}

// MarshalText and UnmarshalText give a WitnessSearch its one text form
// ("spec", "monitor"; empty reads as spec): the spelling of the -witness flag
// and of every file a check is written down in.
func (w WitnessSearch) MarshalText() ([]byte, error) { return []byte(w.String()), nil }

func (w *WitnessSearch) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "spec":
		*w = WitnessSpec
	case "monitor":
		*w = WitnessMonitor
	default:
		return fmt.Errorf("core: unknown witness backend %q (spec or monitor)", b)
	}
	return nil
}

// witnessBackend abstracts the phase-2 witness decision procedure over the
// three checks of Fig. 5: complete histories, classic pending treatment, and
// the generalized per-pending-operation stuck check.
type witnessBackend interface {
	witnessFull(h *history.History) (bool, error)
	witnessClassic(h *history.History) (bool, error)
	witnessStuck(h *history.History, e history.Op) (bool, error)
}

// witnessBackend resolves the backend selected by the (validated) options.
// spec may be nil when the monitor backend is selected.
func (o Options) witnessBackend(spec *history.Spec) witnessBackend {
	if o.WitnessSearch == WitnessMonitor {
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

func (b specBackend) witnessClassic(h *history.History) (bool, error) {
	_, ok := b.spec.WitnessClassic(h)
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
// of pending operations, as in CheckAgainstModel.
func CheckWithMonitor(sub *Subject, model *monitor.Model, m *Test, opts RefOptions) (*Result, error) {
	opts.WitnessSearch = WitnessMonitor
	opts.MonitorModel = model
	mode := modeGeneralized
	if opts.ClassicOnly {
		mode = modeClassic
	}
	return phase2(sub, m, nil, opts.Options, mode)
}
