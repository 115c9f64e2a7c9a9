// Command lineup is the command-line front end of the Line-Up
// reproduction: it regenerates the paper's tables and figures, runs the
// checker on the bundled classes, and reproduces the Section 5.6
// comparisons.
//
// Run "lineup" with no arguments (or an unknown subcommand) for the full
// subcommand table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"lineup/internal/bench"
	"lineup/internal/collections"
	"lineup/internal/core"
	"lineup/internal/dist"
	"lineup/internal/monitor"
	"lineup/internal/monitor/fast"
	"lineup/internal/obsfile"
	"lineup/internal/sched"
	"lineup/internal/subjects"
	"lineup/internal/telemetry"
)

// command is one subcommand of the CLI; the commands table drives both
// dispatch and the usage listing, so the two cannot drift apart.
type command struct {
	name     string
	args     string // argument summary for the usage listing
	synopsis string
	run      func(args []string) error
}

// noArgs adapts the argumentless figure commands to the table signature.
func noArgs(fn func() error) func([]string) error {
	return func([]string) error { return fn() }
}

var commands = []command{
	{"table1", "", "class inventory (Table 1)", cmdTable1},
	{"table2", "[flags]", "evaluation results (Table 2)", cmdTable2},
	{"causes", "[-v]", "directed minimal test per root cause A..L", cmdCauses},
	{"check", "-class NAME [-test SPEC] [flags]", "RandomCheck one class, or check one test as work units", cmdCheck},
	{"generate", "-class NAME [flags]", "coverage-guided test generation against one class", cmdGenerate},
	{"monitor", "-trace FILE -model NAME [flags]", "check a recorded JSONL history trace against a model", cmdMonitor},
	{"serve", "-model NAME [flags]", "stream live JSONL history events through the sharded incremental checker", cmdServe},
	{"fig1", "", "the Fig. 1 queue violation", noArgs(cmdFig1)},
	{"fig4", "", "the Fig. 4 counter (classic vs generalized)", noArgs(cmdFig4)},
	{"fig7", "", "the Fig. 7 observation file and violation report", noArgs(cmdFig7)},
	{"fig9", "", "the Fig. 9 ManualResetEvent bug", noArgs(cmdFig9)},
	{"compare", "[flags]", "race + serializability comparison (Section 5.6)", cmdCompare},
	{"ablate", "", "preemption-bound ablation", cmdAblate},
	{"memory", "[flags]", "store-buffer (TSO) SC-violation scan (Section 5.7)", cmdMemory},
	{"record", "-class NAME -test SPEC [-o FILE]", "record an observation file (phase 1)", cmdRecord},
	{"verify", "-class NAME -test SPEC -obs FILE", "re-check phase 2 against a recorded observation file", cmdVerify},
	{"list", "", "list the registered classes", cmdList},
	{"worker", "JOBFILE", "run one work unit of a check -exec run (spawned by it)", cmdWorker},
}

// errViolation marks a check that found (and already reported) a
// linearizability violation; run maps it to exit code 1 without the
// "lineup:" error prefix.
var errViolation = errors.New("violation found")

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one CLI invocation and returns the process exit code:
// 0 on success, 1 on errors and violations, 2 on usage mistakes.
func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	name, rest := args[0], args[1:]
	for _, c := range commands {
		if c.name != name {
			continue
		}
		if err := c.run(rest); err != nil {
			if !errors.Is(err, errViolation) {
				fmt.Fprintln(os.Stderr, "lineup:", err)
			}
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "lineup: unknown subcommand %q\n\n", name)
	usage(os.Stderr)
	return 2
}

// usage prints the full subcommand table, generated from commands.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lineup <subcommand> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "subcommands:")
	for _, c := range commands {
		left := c.name
		if c.args != "" {
			left += " " + c.args
		}
		fmt.Fprintf(w, "  %-42s %s\n", left, c.synopsis)
	}
}

func cmdTable1(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("table1 takes no arguments")
	}
	bench.WriteTable1(os.Stdout)
	return nil
}

func cmdList(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("list takes no arguments")
	}
	for _, e := range bench.Registry() {
		fmt.Println(e.Subject.Name)
		if e.Pre != nil {
			fmt.Println(e.Pre.Name)
		}
	}
	for _, e := range subjects.Registry() {
		fmt.Println(e.Subject.Name)
		fmt.Println(e.Pre.Name)
		fmt.Println(e.Relaxed.Name)
	}
	return nil
}

// cmdMonitor checks one recorded concurrent history against a built-in
// sequential model with the standalone monitor: no schedule exploration and
// no phase-1 serial enumeration, just the Wing–Gong witness search over the
// trace. A violation exits with status 1.
func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	trace := fs.String("trace", "", "JSONL history trace file ('-' for stdin)")
	model := modelFlag(fs, "sequential model: ")
	classic := fs.Bool("classic", false, "classic Definition 1 treatment of pending operations")
	noMemo := fs.Bool("no-memo", false, "disable the memoized seen-set")
	noPart := fs.Bool("no-partition", false, "disable P-compositional partitioning")
	witnessSpec := fs.String("witness", "wgl", "witness search: wgl (memoized Wing–Gong) or fast (specialized near-log-linear monitor with WGL fallback)")
	verbose := fs.Bool("v", false, "print the witness linearization")
	if err := fs.Parse(args); err != nil {
		return err
	}
	useFast := false
	switch *witnessSpec {
	case "", "wgl":
	case "fast":
		useFast = true
	default:
		return fmt.Errorf("monitor: unknown witness search %q (wgl or fast)", *witnessSpec)
	}
	if *trace == "" {
		return fmt.Errorf("monitor: -trace is required")
	}
	if model.Name == "" {
		return fmt.Errorf("monitor: -model is required (one of %s)", strings.Join(monitor.BuiltinNames(), ", "))
	}
	var r io.Reader = os.Stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	opts := monitor.Options{NoMemo: *noMemo, NoPartition: *noPart}
	if *classic {
		opts.Mode = monitor.ModeClassic
	}
	h, err := obsfile.ReadTrace(r)
	if err != nil {
		return err
	}
	if useFast {
		if kind, ok := fast.KindFor(model.Name); !ok {
			fmt.Fprintf(os.Stderr, "monitor: no specialized monitor for model %q; using the Wing–Gong search\n", model.Name)
		} else {
			lin, ferr := fast.Check(kind, h)
			switch {
			case ferr == nil:
				ops, pending := h.Ops(), len(h.Pending())
				stuck := ""
				if h.Stuck {
					stuck = ", stuck"
				}
				fmt.Printf("checked %d operations (%d pending%s) against model %q\n", len(ops), pending, stuck, model.Name)
				fmt.Printf("search: fast %s monitor, certificate-backed (no state enumeration)\n", model.Name)
				if lin {
					fmt.Println("verdict: linearizable")
					if *verbose {
						fmt.Println("(the fast monitor proves witness existence without materializing one; rerun with -witness wgl for the linearization)")
					}
					return nil
				}
				fmt.Println("verdict: NOT linearizable")
				return errViolation
			case errors.Is(ferr, fast.ErrAmbiguous):
				fmt.Fprintln(os.Stderr, "monitor: history outside the fast monitor's decidable fragment; falling back to the Wing–Gong search")
			default:
				return ferr
			}
		}
	}
	out, err := monitor.Check(model, h, opts)
	if err != nil {
		return err
	}
	ops := h.Ops()
	pending := len(h.Pending())
	stuck := ""
	if h.Stuck {
		stuck = ", stuck"
	}
	fmt.Printf("checked %d operations (%d pending%s) against model %q\n", len(ops), pending, stuck, model.Name)
	fmt.Printf("search: %d parts, %d nodes visited, %d seen-set hits\n",
		out.Stats.Parts, out.Stats.Visited, out.Stats.MemoHits)
	if out.Linearizable {
		fmt.Println("verdict: linearizable")
		if *verbose && len(out.Witness) > 0 {
			fmt.Println("witness:")
			for _, step := range out.Witness {
				fmt.Printf("  %s\n", step)
			}
		}
		return nil
	}
	fmt.Println("verdict: NOT linearizable")
	if out.FailedPending != nil {
		fmt.Printf("pending operation with no stuck serial witness: %s\n", out.FailedPending)
	}
	if out.FailedPart != "" {
		fmt.Printf("failing partition: %s\n", out.FailedPart)
	}
	return errViolation
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	opts := bench.Table2Options{RandomOptions: core.RandomOptions{Samples: 100, Rows: 3, Cols: 3, Seed: 1}}
	addCheckFlags(fs, &opts.RandomOptions, "samples", "rows", "cols", "seed", "workers", "watchdog", "max-failures", "reduction")
	fs.BoolVar(&opts.IncludePre, "pre", true, "include the (Pre) variants")
	tflags := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := tflags.start("table2")
	if err != nil {
		return err
	}
	opts.Telemetry = tr.C
	classes := 0
	for _, e := range bench.Registry() {
		classes++
		if opts.IncludePre && e.Pre != nil {
			classes++
		}
	}
	tr.C.Add(telemetry.TestsPlanned, int64(classes*opts.Samples))
	table, err := bench.RunTable2(opts)
	if err = tr.finishAfter(err); err != nil {
		return err
	}
	bench.WriteTable2(os.Stdout, table)
	return nil
}

func cmdCauses(args []string) error {
	fs := flag.NewFlagSet("causes", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print violation reports")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-4s %-26s %-8s %-10s %s\n", "id", "class", "min dim", "kind", "scenario")
	fmt.Println(strings.Repeat("-", 110))
	for _, c := range bench.CauseCases() {
		res, err := core.Check(c.Subject, c.Test, core.Options{PreemptionBound: c.Bound})
		if err != nil {
			return err
		}
		threads, ops := c.Test.Dim()
		kind := "PASS?!"
		if res.Verdict == core.Fail {
			kind = map[core.ViolationKind]string{
				core.Nondeterminism: "nondet",
				core.NoWitness:      "value",
				core.StuckNoWitness: "stuck",
			}[res.Violation.Kind]
		}
		fmt.Printf("%-4s %-26s %dx%-6d %-10s %s\n", c.Cause, c.Subject.Name, threads, ops, kind, c.Note)
		if *verbose && res.Violation != nil {
			fmt.Println(indent(res.Violation.String()))
		}
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	class := fs.String("class", "", "class name (see 'lineup list')")
	ropts := core.RandomOptions{Samples: 100, Rows: 3, Cols: 3, Seed: 1}
	addCheckFlags(fs, &ropts, "samples", "rows", "cols", "seed", "pb", "workers",
		"watchdog", "max-failures", "detect-leaks", "reduction")
	ropts.MonitorModel = modelFlag(fs, "decide phase 2's witnesses by replay through this sequential model, not by phase-1 lookup: ")
	shrink := fs.Bool("shrink", true, "minimize the first failing test")
	testSpec := fs.String("test", "", `check this one test, as work units (-workers of them at a time), e.g. "Enqueue(10) TryDequeue() / Count()"`)
	dir := fs.String("dir", "", "keep the run's progress in DIR (the sample's checkpoint, or -test's unit journal), so a killed run rerun with the same flags resumes where it was")
	execMode := fs.Bool("exec", false, "with -test: run each work unit in a worker process (kill -9 isolation)")
	tflags := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	oneTest := *testSpec != ""
	var ignored error
	fs.Visit(func(f *flag.Flag) {
		if ignored == nil && slices.Contains(ignoredCheckFlags[oneTest], f.Name) {
			ignored = fmt.Errorf("check: -%s would be ignored %s -test", f.Name, map[bool]string{true: "with", false: "without"}[oneTest])
		}
	})
	if ignored != nil {
		return ignored
	}
	sub, pb, ok := findSubject(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (try 'lineup list')", *class)
	}
	if ropts.PreemptionBound == 0 {
		ropts.PreemptionBound = pb
	}
	if ropts.MonitorModel.Name == "" {
		ropts.MonitorModel = nil
	}
	if oneTest {
		m, err := bench.ParseTest(sub, *testSpec)
		if err != nil {
			return err
		}
		return checkTest(sub, m, ropts.Options, *dir, *execMode, tflags)
	}
	tr, err := tflags.start("check " + sub.Name)
	if err != nil {
		return err
	}
	ropts.Telemetry = tr.C
	tr.C.Add(telemetry.TestsPlanned, int64(ropts.Samples))
	if *dir != "" {
		// The sample's checkpoint, rewritten after every completed test: a
		// killed run left one, and this run resumes from it.
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		ck := filepath.Join(*dir, "checkpoint.json")
		switch cp, err := core.LoadRandomCheckpoint(ck); {
		case err == nil:
			ropts.Resume = cp
			fmt.Fprintf(os.Stderr, "resuming from %s: %d of %d tests already checked\n", ck, len(cp.Tests), cp.Options.Samples)
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
		ropts.Checkpoint = func(cp *core.RandomCheckpoint) error { return cp.Save(ck) }
	}
	sum, err := core.RandomCheck(sub, nil, ropts)
	if err = tr.finishAfter(err); err != nil {
		return err
	}
	fmt.Printf("%s: %d passed, %d failed (of %d sampled %dx%d tests, PB=%d)\n",
		sub.Name, sum.Passed, sum.Failed, ropts.Samples, ropts.Rows, ropts.Cols, ropts.PreemptionBound)
	if nf, kinds := countFailures(sum); nf > 0 {
		fmt.Printf("contained runtime failures: %d (%s)\n", nf, kinds)
	}
	fmt.Printf("phase 1: %.1f serial histories avg (max %d), %v avg\n",
		sum.SerialHistAvg, sum.SerialHistMax, sum.Phase1TimeAvg)
	fmt.Printf("phase 2: %v avg (passing), %v avg (failing), %d tests with stuck histories\n",
		sum.Phase2PassAvg, sum.Phase2FailAvg, sum.StuckTests)
	if ropts.Reduction != sched.ReductionNone {
		pruned, dedup := 0, 0
		for _, r := range sum.Results {
			if r != nil {
				pruned += r.Phase2.Pruned
				dedup += r.Phase2.DedupHits
			}
		}
		fmt.Printf("reduction (%s): %d branches pruned, %d history-cache hits\n",
			ropts.Reduction, pruned, dedup)
	}
	if sum.FirstFailure != nil {
		fmt.Println("\nfirst failing test:")
		fmt.Println(indent(sum.FirstFailure.Test.String()))
		if *shrink {
			min, res, err := core.Shrink(sub, sum.FirstFailure.Test, ropts.Options)
			if err != nil {
				return err
			}
			threads, ops := min.Dim()
			fmt.Printf("shrunk to %dx%d:\n%s\n", threads, ops, indent(min.String()))
			fmt.Println(indent(res.Violation.String()))
		} else {
			fmt.Println(indent(sum.FirstFailure.Violation.String()))
		}
	}
	return nil
}

// checkTest is `check -test`: the one test's phase-2 schedule tree is cut
// into work units, opts.Workers of them run at a time, and dist.Run merges
// them into the verdict of the sequential exhaustive check. dir journals the
// units, so a killed run resumes without redoing a finished one; execMode runs
// each unit in a worker process ("lineup worker JOBFILE").
func checkTest(sub *core.Subject, m *core.Test, opts core.Options, dir string, execMode bool, tflags *telemetryFlags) error {
	tr, err := tflags.start("check " + sub.Name)
	if err != nil {
		return err
	}
	opts.Telemetry = tr.C
	cfg := dist.Config{Subject: sub, Test: m, Options: opts, Dir: dir, Workers: opts.Workers, Telemetry: tr.C}
	if execMode {
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		jobDir := dir
		if jobDir == "" {
			jobDir, err = os.MkdirTemp("", "lineup-units-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(jobDir)
		}
		cfg.Launcher = &dist.ExecLauncher{Bin: bin, Dir: jobDir, KillUnit: -1}
	}
	res, stats, err := dist.Run(context.Background(), cfg)
	err = tr.finishAfter(err)
	// Lease traffic is timing-dependent, so everything but the verdict goes to
	// stderr; stdout stays deterministic for a given class, test and options.
	fmt.Fprintf(os.Stderr, "units: %d total, %d done, %d resumed, %d poisoned; leases: %d granted, %d expired, %d retries, %d stale, %d worker failures\n",
		stats.Units, stats.Done, stats.Resumed, stats.Poisoned,
		stats.LeasesGranted, stats.LeasesExpired, stats.Retries, stats.StaleReports, stats.WorkerFailures)
	if err != nil {
		return err
	}
	fmt.Printf("verdict: %v (%d histories, %d stuck, %d schedules)\n",
		res.Verdict, res.Phase2.Histories, res.Phase2.Stuck, res.Phase2.Executions)
	if res.Violation != nil {
		fmt.Println(indent(res.Violation.String()))
		return errViolation
	}
	return nil
}

// cmdWorker runs the one work unit its job file names and writes the report
// the file asks for; a `check -exec` run spawns it once per leased unit.
func cmdWorker(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("worker takes one argument, the job file a check -exec run writes")
	}
	resolve := func(name string) (*core.Subject, bool) {
		sub, _, ok := findSubject(name)
		return sub, ok
	}
	return dist.RunWorker(args[0], resolve, os.Stdout)
}

// findSubject resolves a class name against both registries: the Go-native
// subject corpus (internal/subjects — correct, (Pre) and (Relaxed) variants)
// and the Table 1 classes. It returns the subject and its class's default
// preemption bound. (A variable so that this package's tests can put a
// subject no registry holds behind -class.)
var findSubject = func(name string) (*core.Subject, int, bool) {
	for _, e := range subjects.Registry() {
		for _, sub := range []*core.Subject{e.Subject, e.Pre, e.Relaxed} {
			if sub != nil && sub.Name == name {
				return sub, e.Bound, true
			}
		}
	}
	if sub, entry, ok := bench.Find(name); ok {
		return sub, entry.Bound, true
	}
	return nil, 0, false
}

// cmdGenerate runs coverage-guided test generation against one class: starting
// from the smallest pairwise tests over the invocation universe, it mutates
// corpus entries and keeps every mutant that touches a new (memory-kind,
// location) pair or produces a new phase-2 history, until a violation is found
// or the budget runs out. The seed is echoed in all output so any violation is
// reproducible bit-for-bit.
func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	class := fs.String("class", "", "class name (see 'lineup list')")
	gopts := core.GenOptions{Seed: 1, Budget: 600, MaxThreads: 3, MaxOps: 3}
	fs.Int64Var(&gopts.Seed, "seed", gopts.Seed, "mutation seed (same seed + same class = same run)")
	fs.IntVar(&gopts.Budget, "budget", gopts.Budget, "maximum number of generated tests to check")
	fs.StringVar(&gopts.CorpusDir, "corpus-dir", "", "persist the accepted corpus as JSON files in DIR")
	fs.IntVar(&gopts.MaxThreads, "max-threads", gopts.MaxThreads, "maximum threads per generated test")
	fs.IntVar(&gopts.MaxOps, "max-ops", gopts.MaxOps, "maximum invocations per thread")
	fs.BoolVar(&gopts.KeepGoing, "keep-going", false, "spend the whole budget even after a violation")
	var ro core.RandomOptions
	addCheckFlags(fs, &ro, "pb", "consistency")
	tflags := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sub, pb, ok := findSubject(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (try 'lineup list')", *class)
	}
	if ro.PreemptionBound != 0 {
		pb = ro.PreemptionBound
	}
	tr, err := tflags.start("generate " + sub.Name)
	if err != nil {
		return err
	}
	gopts.Options = ro.Options
	gopts.PreemptionBound, gopts.Telemetry = pb, tr.C
	tr.C.Add(telemetry.TestsPlanned, int64(gopts.Budget))
	res, err := core.Generate(sub, gopts)
	if err = tr.finishAfter(err); err != nil {
		return err
	}
	fmt.Printf("%s: %d tests generated (seed=%d, PB=%d), %d accepted into the corpus\n",
		sub.Name, res.Tests, res.Seed, pb, res.Accepted)
	fmt.Printf("coverage: %d (kind,loc) pairs, %d distinct phase-2 histories; corpus size %d\n",
		res.CoveragePairs, res.CoverageHists, res.CorpusSize)
	if gopts.CorpusDir != "" {
		fmt.Printf("corpus persisted to %s\n", gopts.CorpusDir)
	}
	if res.Failed != nil {
		fmt.Printf("\nviolation found at test %d of %d (seed=%d — rerun with -seed %d to reproduce):\n",
			res.TestsToFailure, res.Tests, res.Seed, res.Seed)
		fmt.Println(indent(res.Failed.Test.String()))
		fmt.Println(indent(res.Failed.Violation.String()))
		return errViolation
	}
	if res.Exhausted {
		fmt.Printf("no violation within the budget (seed=%d); the class may still be incorrect\n", res.Seed)
	}
	return nil
}

// countFailures tallies the contained runtime failures across a summary's
// results, rendered as "panic=3 hung=1"-style kind counts.
func countFailures(sum *core.RandomSummary) (int, string) {
	counts := make(map[sched.FailureKind]int)
	total := 0
	for _, r := range sum.Results {
		if r == nil {
			continue
		}
		for _, f := range r.Failures {
			counts[f.Kind]++
			total++
		}
	}
	var parts []string
	for _, k := range []sched.FailureKind{sched.FailPanic, sched.FailHung, sched.FailLeak} {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return total, strings.Join(parts, " ")
}

// fig1Test builds the Fig. 1 scenario on the CTP-like BlockingCollection.
func fig1Test() (*core.Subject, *core.Test) {
	sub, _, _ := bench.Find("BlockingCollection(Pre)")
	add := func(v int) core.Op {
		return core.Op{Method: "Add", Args: fmt.Sprint(v), Run: func(t *sched.Thread, o any) string {
			type adder interface{ Add(*sched.Thread, int) bool }
			o.(adder).Add(t, v)
			return "ok"
		}}
	}
	tryTake, _ := sub.FindOp("TryTake()")
	return sub, &core.Test{Rows: [][]core.Op{{add(200), tryTake}, {add(400), tryTake}}}
}

func cmdFig1() error {
	sub, m := fig1Test()
	fmt.Println("Fig. 1 — the CTP TryTake bug (lock acquire allowed to time out):")
	fmt.Println(indent(m.String()))
	res, err := core.Check(sub, m, core.Options{PreemptionBound: 2, KeepSpec: true})
	if err != nil {
		return err
	}
	if res.Verdict != core.Fail {
		return fmt.Errorf("expected a violation")
	}
	fmt.Println(indent(res.Violation.String()))
	fmt.Println("corrected BlockingCollection on the same test:")
	cur, _, _ := bench.Find("BlockingCollection")
	res2, err := core.Check(cur, m, core.Options{PreemptionBound: 2})
	if err != nil {
		return err
	}
	fmt.Printf("  verdict: %v\n", res2.Verdict)
	return nil
}

func cmdFig4() error {
	incOp := core.Op{Method: "Inc", Run: func(t *sched.Thread, o any) string {
		o.(interface{ Inc(*sched.Thread) }).Inc(t)
		return "ok"
	}}
	getOp := core.Op{Method: "Get", Run: func(t *sched.Thread, o any) string {
		return collections.Int(o.(interface{ Get(*sched.Thread) int }).Get(t))
	}}
	impl := &core.Subject{
		Name: "Counter2",
		New:  func(t *sched.Thread) any { return collections.NewCounter2(t) },
		Ops:  []core.Op{incOp, getOp},
	}
	model := &core.Subject{
		Name: "Counter",
		New:  func(t *sched.Thread) any { return collections.NewCounter(t) },
		Ops:  []core.Op{incOp, getOp},
	}
	m := &core.Test{Rows: [][]core.Op{{incOp, getOp}, {incOp}}}
	fmt.Println("Fig. 4 — Counter2 forgets to release the lock in Get:")
	fmt.Println(indent(m.String()))
	classic, err := core.CheckAgainstModel(impl, model, m, core.RefOptions{ClassicOnly: true})
	if err != nil {
		return err
	}
	fmt.Printf("  classic linearizability (Def. 1) vs counter spec:     %v\n", classic.Verdict)
	gen, err := core.CheckAgainstModel(impl, model, m, core.RefOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("  generalized linearizability (Def. 3) vs counter spec: %v\n", gen.Verdict)
	if gen.Violation != nil {
		fmt.Println(indent(gen.Violation.String()))
	}
	return nil
}

func cmdFig7() error {
	// The Fig. 7 test: Thread A = Add(200); Add(400), Thread B = Take();
	// TryTake() on the (correct-for-these-methods) CTP collection.
	sub, _, _ := bench.Find("BlockingCollection(Pre)")
	add := func(v int) core.Op {
		return core.Op{Method: "Add", Args: fmt.Sprint(v), Run: func(t *sched.Thread, o any) string {
			type adder interface{ Add(*sched.Thread, int) bool }
			o.(adder).Add(t, v)
			return "ok"
		}}
	}
	take, _ := sub.FindOp("Take()")
	tryTake, _ := sub.FindOp("TryTake()")
	m := &core.Test{Rows: [][]core.Op{{add(200), add(400)}, {take, tryTake}}}
	fmt.Println("Fig. 7 (top) — the test:")
	fmt.Println(indent(m.String()))
	res, err := core.Check(sub, m, core.Options{PreemptionBound: 2, KeepSpec: true})
	if err != nil {
		return err
	}
	fmt.Println("Fig. 7 (middle) — the observation file (phase 1):")
	if err := obsfile.Write(os.Stdout, res.Spec); err != nil {
		return err
	}
	fmt.Println("Fig. 7 (bottom) — the violation report, from the Fig. 1 test")
	fmt.Println("(under the TryLock timeout model the original Take/TryTake layout")
	fmt.Println("does not fail — see the substitution note in DESIGN.md):")
	if res.Violation == nil {
		fsub, fm := fig1Test()
		res, err = core.Check(fsub, fm, core.Options{PreemptionBound: 2})
		if err != nil {
			return err
		}
	}
	if res.Violation != nil && res.Violation.History != nil {
		return obsfile.WriteViolation(os.Stdout, res.Violation.History)
	}
	fmt.Println("  (no violation found)")
	return nil
}

func cmdFig9() error {
	cases := bench.CauseCases()
	var c bench.CauseCase
	for _, cc := range cases {
		if cc.Cause == bench.CauseA {
			c = cc
		}
	}
	fmt.Println("Fig. 9 — the ManualResetEvent CAS typo (root cause A):")
	fmt.Println(indent(c.Test.String()))
	res, err := core.Check(c.Subject, c.Test, core.Options{PreemptionBound: c.Bound})
	if err != nil {
		return err
	}
	if res.Verdict != core.Fail {
		return fmt.Errorf("expected a violation")
	}
	fmt.Println(indent(res.Violation.String()))
	fmt.Println("corrected ManualResetEvent on the same test:")
	res2, err := core.Check(c.Counterpart, c.Test, core.Options{PreemptionBound: c.Bound})
	if err != nil {
		return err
	}
	fmt.Printf("  verdict: %v\n", res2.Verdict)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	ro := core.RandomOptions{Samples: 10, Seed: 5, Options: core.Options{PreemptionBound: 2}}
	addCheckFlags(fs, &ro, "samples", "seed", "workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Section 5.6 — Line-Up vs race detection vs conflict-serializability")
	fmt.Printf("%-26s %8s %8s %10s %10s\n", "Class", "races", "atomWarn", "warnTests", "lineupFail")
	fmt.Println(strings.Repeat("-", 70))
	for _, e := range bench.Registry() {
		res, err := bench.CompareRandom(e.Subject, 2, 2, ro.Samples, ro.Seed, ro.Options)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %8d %8d %10d %10d\n",
			res.Subject, len(res.Races), res.AtomicityWarnings, res.AtomicityTests, res.LineUpFailures)
	}
	fmt.Println("\nsample serializability warnings (all false alarms on correct classes):")
	stack, _, _ := bench.Find("ConcurrentStack")
	res, err := bench.CompareRandom(stack, 2, 2, ro.Samples, ro.Seed, ro.Options)
	if err != nil {
		return err
	}
	for _, w := range res.WarningSamples {
		fmt.Println(" ", w)
	}
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Preemption-bound ablation: which directed root-cause tests fail at each bound")
	fmt.Printf("%-4s %-26s", "id", "class")
	bounds := []int{core.NoPreemptions, 1, 2, 3, 4}
	for _, b := range bounds {
		n := b
		if b == core.NoPreemptions {
			n = 0
		}
		fmt.Printf(" %6s", fmt.Sprintf("PB=%d", n))
	}
	fmt.Println(" (execs at class PB)")
	fmt.Println(strings.Repeat("-", 90))
	for _, c := range bench.CauseCases() {
		fmt.Printf("%-4s %-26s", c.Cause, c.Subject.Name)
		var execs int
		for _, b := range bounds {
			res, err := core.Check(c.Subject, c.Test, core.Options{PreemptionBound: b})
			if err != nil {
				return err
			}
			mark := "pass"
			if res.Verdict == core.Fail {
				mark = "FAIL"
			}
			if b == c.Bound {
				execs = res.Phase2.Executions
			}
			fmt.Printf(" %6s", mark)
		}
		fmt.Printf(" %8d\n", execs)
	}
	return nil
}

// cmdMemory runs the Section 5.7 relaxed-memory scan: every class's
// executions are checked for store-buffer SC-violation patterns.
func cmdMemory(args []string) error {
	fs := flag.NewFlagSet("memory", flag.ExitOnError)
	samples := fs.Int("samples", 6, "random tests per class")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Section 5.7 — store-buffer (TSO) SC-violation scan")
	fmt.Printf("%-26s %8s %10s %10s\n", "Class", "tests", "execs", "violations")
	fmt.Println(strings.Repeat("-", 60))
	total := 0
	for _, e := range bench.Registry() {
		res, err := bench.SoberRandom(e.Subject, 2, 2, *samples, 9, core.Options{PreemptionBound: 2})
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %8d %10d %10d\n", res.Subject, res.Tests, res.Executions, len(res.Violations))
		total += len(res.Violations)
		for _, v := range res.Violations {
			fmt.Println("   ", v)
		}
	}
	if total == 0 {
		fmt.Println()
		fmt.Println("no potential sequential-consistency violations found, matching the")
		fmt.Println("paper: the classes' cross-thread protocols use volatiles, interlocked")
		fmt.Println("operations and monitors throughout.")
	}
	return nil
}

// cmdRecord synthesizes the specification of one test (phase 1) and writes
// it as an observation file — the recording half of the Section 4.2
// regression workflow.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	class := fs.String("class", "", "class name (see 'lineup list')")
	testSpec := fs.String("test", "", `test matrix, e.g. "Enqueue(10) TryDequeue() / Count()"`)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sub, _, ok := findSubject(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (try 'lineup list')", *class)
	}
	m, err := bench.ParseTest(sub, *testSpec)
	if err != nil {
		return err
	}
	spec, stats, err := core.SynthesizeSpec(sub, m, core.Options{})
	if err != nil {
		return err
	}
	if *out != "" {
		// Atomic temp-file + rename: a crash mid-record never leaves a
		// truncated observation file behind for later 'lineup verify' runs.
		if err := obsfile.WriteFileAtomic(*out, spec); err != nil {
			return err
		}
	} else if err := obsfile.Write(os.Stdout, spec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d full and %d stuck serial histories (%d serial executions, %v)\n",
		stats.Histories, stats.Stuck, stats.Executions, stats.Duration.Round(time.Millisecond))
	return nil
}

// cmdVerify replays phase 2 of one test against a recorded observation file
// — the checking half of the regression workflow.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	class := fs.String("class", "", "class name (see 'lineup list')")
	testSpec := fs.String("test", "", `test matrix, e.g. "Enqueue(10) TryDequeue() / Count()"`)
	in := fs.String("obs", "", "observation file recorded with 'lineup record'")
	ro := core.RandomOptions{Options: core.Options{PreemptionBound: 2}}
	addCheckFlags(fs, &ro, "pb")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sub, _, ok := findSubject(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (try 'lineup list')", *class)
	}
	m, err := bench.ParseTest(sub, *testSpec)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	parsed, err := obsfile.Parse(f)
	if err != nil {
		return err
	}
	res, err := core.CheckAgainstSpec(sub, m, parsed.ToSpec(), ro.Options)
	if err != nil {
		return err
	}
	fmt.Printf("verdict: %v (%d histories, %d stuck, %d schedules)\n",
		res.Verdict, res.Phase2.Histories, res.Phase2.Stuck, res.Phase2.Executions)
	if res.Violation != nil {
		fmt.Println(indent(res.Violation.String()))
		return errViolation
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}
