package core

import (
	"errors"
	"strconv"

	"lineup/internal/history"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
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
	// WitnessFast routes histories of the five classic data types through
	// the specialized near-log-linear monitors of internal/monitor/fast,
	// falling back to the memoized Wing–Gong search whenever a history is
	// outside their decidable fragment (pending operations, duplicate
	// values, observer operations). The fallback keeps verdicts
	// bit-identical to WitnessMonitor; telemetry counts hits and fallbacks.
	WitnessFast
)

// String renders the backend name the CLI's -witness flag accepts.
func (w WitnessSearch) String() string {
	switch w {
	case WitnessMonitor:
		return "monitor"
	case WitnessFast:
		return "fast"
	default:
		return "spec"
	}
}

// usesModel reports whether the backend replays Options.MonitorModel (as
// opposed to looking histories up in the phase-1 specification).
func (w WitnessSearch) usesModel() bool {
	return w == WitnessMonitor || w == WitnessFast
}

// ParseWitness parses a -witness flag value into a WitnessSearch.
func ParseWitness(s string) (WitnessSearch, error) {
	switch s {
	case "", "spec":
		return WitnessSpec, nil
	case "monitor":
		return WitnessMonitor, nil
	case "fast":
		return WitnessFast, nil
	default:
		return WitnessSpec, errors.New("core: unknown witness backend " + strconv.Quote(s) + " (spec, monitor, or fast)")
	}
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
// spec may be nil when a monitor backend is selected.
func (o Options) witnessBackend(spec *history.Spec) witnessBackend {
	if !o.WitnessSearch.usesModel() {
		return specBackend{spec: spec}
	}
	slow := monitorBackend{model: o.MonitorModel, tel: o.Telemetry}
	if o.WitnessSearch == WitnessFast {
		// With no specialized monitor for this model every history would fall
		// back, so the general backend is used directly.
		if kind, ok := fast.KindFor(o.MonitorModel.Name); ok {
			return fastBackend{kind: kind, slow: slow, tel: o.Telemetry}
		}
	}
	return slow
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

// fastBackend tries the specialized near-log-linear monitor first and falls
// back to the general memoized search on ErrAmbiguous. Definite fast
// verdicts are certificate-backed (a constructed witness for true, a
// violation certificate for false), so agreement with the fallback is by
// construction, not by luck.
type fastBackend struct {
	kind fast.Kind
	slow monitorBackend
	tel  *telemetry.Collector
}

func (b fastBackend) try(h *history.History, slow func() (bool, error)) (bool, error) {
	ok, err := fast.Check(b.kind, h)
	if err == nil {
		b.tel.AddFastHit()
		return ok, nil
	}
	if !errors.Is(err, fast.ErrAmbiguous) {
		return false, err
	}
	b.tel.AddFastFallback()
	return slow()
}

func (b fastBackend) witnessFull(h *history.History) (bool, error) {
	return b.try(h, func() (bool, error) { return b.slow.witnessFull(h) })
}

func (b fastBackend) witnessClassic(h *history.History) (bool, error) {
	// The classic treatment drops pending operations only; on complete
	// histories it coincides with the full check, and incomplete histories
	// are outside the fast fragment anyway.
	return b.try(h, func() (bool, error) { return b.slow.witnessClassic(h) })
}

func (b fastBackend) witnessStuck(h *history.History, e history.Op) (bool, error) {
	// Stuck histories are outside every fast fragment; go straight to the
	// general search.
	b.tel.AddFastFallback()
	return b.slow.witnessStuck(h, e)
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
