package core

// RelaxedResult is the wildcard that replaces the results of relaxed
// operations in histories and specifications.
const RelaxedResult = "*"

// Relax marks the named operations (display names, e.g. "Count()") as
// nondeterministic: their results are recorded as the wildcard, where the
// test's program records each result, so neither specification synthesis nor
// witness checking ever sees them and differing results never cause a
// failure while the operations' ordering and blocking behavior are
// still checked. This implements the paper's future-work item of Section 6
// ("incorporate support for nondeterministic methods, such as methods that
// may fail on interference"): after the developers of ConcurrentBag and
// BlockingCollection documented the weak semantics of Count/TryTake
// (Section 5.2.2), a user would relax exactly those methods and keep
// checking the rest of the class.
func (o Options) Relax(names ...string) Options {
	o.RelaxedOps = append(append([]string(nil), o.RelaxedOps...), names...)
	return o
}
