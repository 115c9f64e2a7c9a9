package core

import "lineup/internal/monitor"

// CheckAgainstModel is a variant of Check that synthesizes the
// specification from a reference model rather than from the implementation
// itself: phase 1 enumerates the serial executions of model, phase 2 the
// concurrent executions of impl. This checks generalized linearizability
// (Definition 3) of impl with respect to the model's (deterministic)
// specification — the setting of the paper's Section 2.2 examples, where
// the counter specification of Fig. 3 is given. The model must be
// deterministic; if its serial behaviors are nondeterministic the check
// fails with a Nondeterminism violation attributed to the model. The
// classic Definition 1 is CheckWithMonitor's, with RefOptions.ClassicOnly.
func CheckAgainstModel(impl, model *Subject, m *Test, opts Options) (*Result, error) {
	spec, p1, err := SynthesizeSpec(model, m, opts)
	if err != nil {
		return nil, err
	}
	res, err := phase2(impl, m, spec, opts, monitor.ModeAuto)
	if err != nil {
		return nil, err
	}
	res.Phase1 = p1
	return res, nil
}
