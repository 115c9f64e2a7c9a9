package main

import (
	"flag"
	"strings"

	"lineup/internal/core"
	"lineup/internal/monitor"
)

// addCheckFlags registers the named flags on a subcommand's FlagSet, each
// bound straight to its field of o — this switch is the CLI's one table of
// {flag → field of core.RandomOptions}, so a flag has one spelling, one usage
// line and one parser (the field type's UnmarshalText) on every subcommand
// that offers it. What o holds when the flag is registered is the flag's
// default, which is how table2 and compare differ from check.
func addCheckFlags(fs *flag.FlagSet, o *core.RandomOptions, names ...string) {
	for _, name := range names {
		switch name {
		case "samples":
			fs.IntVar(&o.Samples, name, o.Samples, "random tests (per class)")
		case "rows":
			fs.IntVar(&o.Rows, name, o.Rows, "threads per test")
		case "cols":
			fs.IntVar(&o.Cols, name, o.Cols, "invocations per thread")
		case "seed":
			fs.Int64Var(&o.Seed, name, o.Seed, "sampling seed")
		case "workers":
			fs.IntVar(&o.Workers, name, o.Workers, "workers (0 = one per CPU, or one under -detect-leaks): tests checked side by side, each test's exploration sharing what is left, or -test's units at a time")
		case "pb":
			fs.IntVar(&o.PreemptionBound, name, o.PreemptionBound, "preemption bound (0 = the default: the class's own, or 2)")
		case "watchdog":
			fs.DurationVar(&o.Watchdog, name, o.Watchdog, "abandon executions making no scheduler progress for this long (0 = off)")
		case "max-failures":
			fs.IntVar(&o.MaxFailures, name, o.MaxFailures, "contain up to N failed executions (panic/hang/leak) per check instead of aborting (0 = strict)")
		case "detect-leaks":
			fs.BoolVar(&o.DetectLeaks, name, o.DetectLeaks, "report goroutines that escape the scheduler and outlive an execution")
		default:
			panic("lineup: no check flag -" + name)
		}
	}
}

// ignoredCheckFlags lists, by whether -test is given, the check flags that
// mode would ignore: the sample's shape, seed and shrink with -test, and leak
// detection, which units run without; -exec and -obs without -test. cmdCheck
// refuses a set one before anything runs.
var ignoredCheckFlags = map[bool][]string{
	true:  {"samples", "rows", "cols", "seed", "shrink", "detect-leaks"},
	false: {"exec", "obs"},
}

// modelFlag registers -model. A model travels by name (monitor.Model's text
// form), so a name that is no built-in model is refused while the command
// line is parsed; the returned model's Name is empty when the flag was not
// given.
func modelFlag(fs *flag.FlagSet, usage string) *monitor.Model {
	m := new(monitor.Model)
	fs.TextVar(m, "model", new(monitor.Model), usage+strings.Join(monitor.BuiltinNames(), ", "))
	return m
}
