package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lineup/internal/core"
)

// moduleRoot locates the repository root (for Table 1 line counting) from
// this source file's compiled location.
func moduleRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// CountLines counts non-blank, non-comment-only source lines of a file,
// which is how the LOC column of Table 1 is produced. It returns 0 if the
// file cannot be read (e.g. when the binary runs away from the source
// tree).
func CountLines(relPath string) int {
	data, err := os.ReadFile(filepath.Join(moduleRoot(), relPath))
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n
}

// Table1Row is one row of Table 1: class name, implementation size, and
// the methods checked.
type Table1Row struct {
	Class   string
	LOC     int
	Methods []string
}

// Table1 builds the class inventory of Table 1 from the registry.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, e := range Registry() {
		loc := 0
		for _, f := range e.Subject.SourceFiles {
			loc += CountLines(f)
		}
		if e.Pre != nil {
			for _, f := range e.Pre.SourceFiles {
				loc += CountLines(f)
			}
		}
		methods := make([]string, 0, len(e.Subject.Ops))
		for _, op := range e.Subject.Ops {
			methods = append(methods, op.Name())
		}
		rows = append(rows, Table1Row{Class: e.Subject.Name, LOC: loc, Methods: methods})
	}
	return rows
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer) {
	rows := Table1()
	totalMethods, totalLOC := 0, 0
	fmt.Fprintf(w, "%-26s %6s  %s\n", "Class", "LOC", "Methods checked")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 100))
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %6d  %s\n", r.Class, r.LOC, strings.Join(r.Methods, ", "))
		totalMethods += len(r.Methods)
		totalLOC += r.LOC
	}
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 100))
	fmt.Fprintf(w, "%-26s %6d  %d classes, %d invocations checked (paper: 13 classes, 90 methods)\n",
		"total", totalLOC, len(rows), totalMethods)
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Class      string
	Causes     string // root causes with minimal dimensions, e.g. "A(2x3)"
	SerialAvg  float64
	SerialMax  int
	P1TimeAvg  time.Duration
	P1TimeMax  time.Duration
	Passed     int
	Failed     int
	P2FailTime time.Duration
	P2PassTime time.Duration
	PB         int
	StuckTests int
	// Schedules, Histories, and Wall aggregate the raw run measurements for
	// the machine-readable JSON output: total schedules explored across both
	// phases, distinct concurrent histories checked in phase 2 (full plus
	// stuck), and the wall-clock time of the class's whole sample.
	Schedules int
	Histories int
	Wall      time.Duration
}

// Table2Options parameterizes the Table 2 run.
type Table2Options struct {
	// RandomOptions is what every class's sample is checked with (the paper:
	// 100 tests of dimension 3x3, RandomCheck's defaults). PreemptionBound is
	// each class's own registry bound whatever is set here, a zero Seed means
	// 1, and Progress reports the done and total tests of the class currently
	// running.
	core.RandomOptions
	// IncludePre includes the "(Pre)" variants (the paper tests both
	// releases).
	IncludePre bool
}

// minDims maps subjects to their root causes with minimal dimensions,
// derived from the directed cases.
func minDims() map[string][]string {
	out := make(map[string][]string)
	for _, c := range CauseCases() {
		threads, ops := c.Test.Dim()
		out[c.Subject.Name] = append(out[c.Subject.Name], fmt.Sprintf("%s(%dx%d)", c.Cause, threads, ops))
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

// RunTable2 regenerates Table 2: for every class (and optionally its (Pre)
// variant) it runs RandomCheck and aggregates the phase statistics.
func RunTable2(opts Table2Options, progress func(string)) ([]Table2Row, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	dims := minDims()
	var rows []Table2Row
	run := func(sub *core.Subject, bound int) error {
		if progress != nil {
			progress(sub.Name)
		}
		ro := opts.RandomOptions
		ro.PreemptionBound = bound
		sum, err := core.RandomCheck(sub, nil, ro)
		if err != nil {
			return err
		}
		schedules, histories := 0, 0
		for _, r := range sum.Results {
			if r == nil {
				continue
			}
			schedules += r.Phase1.Executions + r.Phase2.Executions
			histories += r.Phase2.Histories + r.Phase2.Stuck
		}
		rows = append(rows, Table2Row{
			Class:      sub.Name,
			Causes:     strings.Join(dims[sub.Name], " "),
			SerialAvg:  sum.SerialHistAvg,
			SerialMax:  sum.SerialHistMax,
			P1TimeAvg:  sum.Phase1TimeAvg,
			P1TimeMax:  sum.Phase1TimeMax,
			Passed:     sum.Passed,
			Failed:     sum.Failed,
			P2FailTime: sum.Phase2FailAvg,
			P2PassTime: sum.Phase2PassAvg,
			PB:         bound,
			StuckTests: sum.StuckTests,
			Schedules:  schedules,
			Histories:  histories,
			Wall:       sum.TotalDuration,
		})
		return nil
	}
	for _, e := range Registry() {
		if err := run(e.Subject, e.Bound); err != nil {
			return nil, err
		}
		if opts.IncludePre && e.Pre != nil {
			if err := run(e.Pre, e.Bound); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// WriteTable2 renders the Table 2 rows.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-26s %-18s | %9s %6s %9s %9s | %6s %6s %9s %9s %3s %5s\n",
		"Class", "causes(min dim)", "ser.avg", "max", "t1.avg", "t1.max",
		"pass", "fail", "t2.fail", "t2.pass", "PB", "stuck")
	fmt.Fprintln(w, strings.Repeat("-", 140))
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-18s | %9.1f %6d %9s %9s | %6d %6d %9s %9s %3d %5d\n",
			r.Class, r.Causes, r.SerialAvg, r.SerialMax,
			round(r.P1TimeAvg), round(r.P1TimeMax),
			r.Passed, r.Failed, round(r.P2FailTime), round(r.P2PassTime),
			r.PB, r.StuckTests)
	}
}

func round(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Microsecond).String()
}
