package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lineup/internal/core"
)

// captureStdout redirects os.Stdout around fn and returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdCauses(t *testing.T) {
	out := captureStdout(t, func() error { return cmdCauses(nil) })
	for _, want := range []string{"A ", "L ", "Fig. 9", "Fig. 1", "stuck", "value"} {
		if !contains(out, want) {
			t.Fatalf("causes output missing %q:\n%s", want, out)
		}
	}
	if contains(out, "PASS?!") {
		t.Fatalf("a directed cause test passed unexpectedly:\n%s", out)
	}
}

func TestCmdFig4(t *testing.T) {
	out := captureStdout(t, func() error { return cmdFig4() })
	if !contains(out, "classic linearizability (Def. 1) vs counter spec:     PASS") {
		t.Fatalf("classic verdict wrong:\n%s", out)
	}
	if !contains(out, "generalized linearizability (Def. 3) vs counter spec: FAIL") {
		t.Fatalf("generalized verdict wrong:\n%s", out)
	}
}

func TestCmdFig1(t *testing.T) {
	out := captureStdout(t, func() error { return cmdFig1() })
	if !contains(out, "violation") || !contains(out, "verdict: PASS") {
		t.Fatalf("fig1 output incomplete:\n%s", out)
	}
}

func TestCmdFig9(t *testing.T) {
	out := captureStdout(t, func() error { return cmdFig9() })
	if !contains(out, "stuck history") || !contains(out, "verdict: PASS") {
		t.Fatalf("fig9 output incomplete:\n%s", out)
	}
}

func TestCmdRecordVerifyRoundtrip(t *testing.T) {
	dir := t.TempDir()
	obs := filepath.Join(dir, "queue.obs")
	_ = captureStdout(t, func() error {
		return cmdRecord([]string{"-class", "ConcurrentQueue", "-test", "Enqueue(10) TryDequeue() / Count()", "-o", obs})
	})
	if _, err := os.Stat(obs); err != nil {
		t.Fatalf("observation file not written: %v", err)
	}
	out := captureStdout(t, func() error {
		return cmdVerify([]string{"-class", "ConcurrentQueue", "-test", "Enqueue(10) TryDequeue() / Count()", "-obs", obs})
	})
	if !contains(out, "verdict: PASS") {
		t.Fatalf("verify against own recording failed:\n%s", out)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestCmdCheckHardeningFlags exercises the containment flags end to end on
// a small clean run: watchdog armed, failure budget set, leak detection on.
// A correct class must pass with no contained failures reported.
func TestCmdCheckHardeningFlags(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdCheck([]string{
			"-class", "ConcurrentStack", "-samples", "3", "-rows", "2", "-cols", "2",
			"-workers", "1", "-watchdog", "30s", "-max-failures", "5", "-detect-leaks",
		})
	})
	if !contains(out, "3 passed, 0 failed") {
		t.Fatalf("hardened check on a correct class did not pass:\n%s", out)
	}
	if contains(out, "contained runtime failures") {
		t.Fatalf("clean run reported contained failures:\n%s", out)
	}
}

// TestCmdCheckLeakDetectionNeedsOneWorker: -detect-leaks counts the
// goroutines of the whole process, so asking for it together with more than
// one worker is refused before any test runs — it used to run without the
// check it was asked for. Without -workers it runs on the one worker it
// needs, whatever the number of CPUs.
func TestCmdCheckLeakDetectionNeedsOneWorker(t *testing.T) {
	sample := []string{"-class", "ConcurrentStack", "-samples", "1", "-rows", "2", "-cols", "2", "-detect-leaks"}
	for _, tc := range []struct {
		workers []string
		refused bool
	}{
		{[]string{"-workers", "2"}, true},
		{nil, false},
	} {
		var err error
		captureStdout(t, func() error {
			err = cmdCheck(append(append([]string(nil), sample...), tc.workers...))
			return nil
		})
		var oe *core.OptionsError
		if refused := errors.As(err, &oe) && oe.Field == "DetectLeaks"; refused != tc.refused || (!tc.refused && err != nil) {
			t.Errorf("check -detect-leaks %v: err = %v, want refused %v", tc.workers, err, tc.refused)
		}
	}
}

// TestCmdCheckRefusesIgnoredFlags: a flag the chosen mode of check would
// ignore — the sample's with -test, -exec without it — is refused before
// anything runs: no class is looked up (there is none of this name), no test
// parsed, no directory made.
func TestCmdCheckRefusesIgnoredFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never")
	oneTest := func(flag ...string) []string {
		return append([]string{"-class", "NoSuchClass", "-test", "Push(1) / TryPop()", "-dir", dir}, flag...)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{oneTest("-samples", "3"), "-samples would be ignored with -test"},
		{oneTest("-rows", "2"), "-rows would be ignored with -test"},
		{oneTest("-cols", "2"), "-cols would be ignored with -test"},
		{oneTest("-seed", "7"), "-seed would be ignored with -test"},
		{oneTest("-shrink=false"), "-shrink would be ignored with -test"},
		{oneTest("-detect-leaks"), "-detect-leaks would be ignored with -test"},
		{[]string{"-class", "NoSuchClass", "-dir", dir, "-exec"}, "-exec would be ignored without -test"},
	} {
		if err := cmdCheck(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("check %v: err = %v, want %q", c.args, err, c.want)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run touched -dir: %v", err)
	}
}

// TestCmdCheckCheckpointWrites verifies that -dir keeps the sample's
// checkpoint: every completed test recorded in a well-formed, resumable file.
func TestCmdCheckCheckpointWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	_ = captureStdout(t, func() error {
		return cmdCheck([]string{
			"-class", "ConcurrentStack", "-samples", "3", "-rows", "2", "-cols", "2",
			"-workers", "1", "-dir", dir,
		})
	})
	cp, err := core.LoadRandomCheckpoint(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	if cp.Options.Samples != 3 || len(cp.Tests) != 3 {
		t.Fatalf("checkpoint records %d of %d tests, want 3 of 3", len(cp.Tests), cp.Options.Samples)
	}
	if cp.Subject != "ConcurrentStack" {
		t.Fatalf("checkpoint subject = %q", cp.Subject)
	}
}

// captureStderr redirects os.Stderr around fn and returns what it printed.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}

// The retired measuring subcommands are unknown like any other name.
func TestRunUnknownSubcommand(t *testing.T) {
	for _, name := range []string{"frobnicate", "parallel", "reduction"} {
		var code int
		errOut := captureStderr(t, func() { code = run([]string{name}) })
		if code != 2 {
			t.Fatalf("unknown subcommand %q must exit 2, got %d", name, code)
		}
		if !contains(errOut, `unknown subcommand "`+name+`"`) {
			t.Fatalf("missing unknown-subcommand diagnostic for %q:\n%s", name, errOut)
		}
		for _, c := range commands {
			if !contains(errOut, c.name) {
				t.Fatalf("usage listing missing %q:\n%s", c.name, errOut)
			}
		}
	}
}

func TestRunWithoutArguments(t *testing.T) {
	var code int
	errOut := captureStderr(t, func() { code = run(nil) })
	if code != 2 {
		t.Fatalf("bare invocation must exit 2, got %d", code)
	}
	if !contains(errOut, "subcommands:") {
		t.Fatalf("bare invocation must print the usage table:\n%s", errOut)
	}
}

func TestUsageListsEveryCommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	out := buf.String()
	for _, c := range commands {
		if !contains(out, c.name) || !contains(out, c.synopsis) {
			t.Fatalf("usage missing %q (%q):\n%s", c.name, c.synopsis, out)
		}
	}
	if !contains(out, "monitor -trace FILE -model NAME") {
		t.Fatalf("usage missing the monitor invocation form:\n%s", out)
	}
}

// TestCmdCheckReductionFlag runs a small check with -reduction=sleep and
// expects the pruned/dedup counter line; the same run with -reduction=none
// must not print it. (A bogus strategy is refused while the command line is
// parsed: TestCmdWitnessRefusals.)
func TestCmdCheckReductionFlag(t *testing.T) {
	args := []string{
		"-class", "ConcurrentStack", "-samples", "3", "-rows", "2", "-cols", "2",
		"-workers", "1",
	}
	out := captureStdout(t, func() error {
		return cmdCheck(append(args, "-reduction", "sleep"))
	})
	if !contains(out, "3 passed, 0 failed") {
		t.Fatalf("reduced check on a correct class did not pass:\n%s", out)
	}
	if !contains(out, "reduction (sleep):") || !contains(out, "branches pruned") {
		t.Fatalf("missing reduction counters:\n%s", out)
	}
	out = captureStdout(t, func() error { return cmdCheck(args) })
	if contains(out, "reduction (") {
		t.Fatalf("unreduced run printed reduction counters:\n%s", out)
	}
}

// TestCmdWitnessRefusals: the witness values and flag combinations the CLI
// does not offer are refused up front — before any test is sampled or run,
// any trace, checkpoint or journal is opened (the path below does not exist)
// or any server is started — through the real process boundary, since an
// undefined flag and a value its type's UnmarshalText refuses both exit 2
// from flag.Parse.
func TestCmdWitnessRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short mode")
	}
	bin := buildLineup(t)
	missing := filepath.Join(t.TempDir(), "no-such-trace.jsonl")
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"check", "-class", "ConcurrentStack", "-reduction", "bogus"},
			2, `unknown reduction "bogus" (want none or sleep)`},
		{[]string{"check", "-class", "ConcurrentStack", "-model", "deque"},
			2, `unknown model "deque" (one of queue, `},
		{[]string{"check", "-class", "ConcurrentStack", "-witness", "monitor", "-model", "stack"},
			2, "flag provided but not defined: -witness"},
		{[]string{"check", "-class", "ConcurrentStack", "-exec"},
			1, "-exec would be ignored without -test"},
		{[]string{"check", "-class", "ConcurrentStack", "-test", "Push(1) / TryPop()", "-samples", "3"},
			1, "-samples would be ignored with -test"},
		{[]string{"check", "-class", "ConcurrentStack", "-checkpoint", missing},
			2, "flag provided but not defined: -checkpoint"},
		{[]string{"check", "-class", "ConcurrentStack", "-explore-workers", "2"},
			2, "flag provided but not defined: -explore-workers"},
		{[]string{"dist", "-class", "ConcurrentStack", "-test", "Push(1) / TryPop()"},
			2, `unknown subcommand "dist"`},
		{[]string{"monitor", "-trace", missing, "-model", "queue", "-window", "8"},
			2, "flag provided but not defined: -window"},
		{[]string{"serve", "-model", "queue", "-trace", missing, "-batch"},
			2, "flag provided but not defined: -batch"},
		{[]string{"serve", "-model", "queue", "-trace", missing, "-witness", "wgl"},
			2, "flag provided but not defined: -witness"},
		{[]string{"serve", "-model", "queue", "-trace", missing, "-no-memo"},
			2, "flag provided but not defined: -no-memo"},
	} {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != c.code {
			t.Errorf("lineup %v: err = %v, want exit %d\n%s", c.args, err, c.code, out)
			continue
		}
		if !contains(string(out), c.want) || contains(string(out), "no such file") {
			t.Errorf("lineup %v: output does not say %q (or got as far as the trace):\n%s", c.args, c.want, out)
		}
	}
}

// TestCmdMonitorDetectsViolation feeds the monitor a hand-recorded Fig. 1
// shaped JSONL trace: Enqueue(10) completed strictly before TryDequeue was
// called, yet TryDequeue failed. The monitor must reject it with exit code 1
// and no schedule exploration.
func TestCmdMonitorDetectsViolation(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "fig1.jsonl")
	body := `{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}
{"t":1,"k":"call","op":"TryDequeue()"}
{"t":1,"k":"ret","op":"TryDequeue()","res":"Fail"}
`
	if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := captureStdout(t, func() error {
		code = run([]string{"monitor", "-trace", trace, "-model", "queue"})
		return nil
	})
	if code != 1 {
		t.Fatalf("violation must exit 1, got %d\noutput:\n%s", code, out)
	}
	if !contains(out, "NOT linearizable") {
		t.Fatalf("missing verdict:\n%s", out)
	}
}

func TestCmdMonitorLinearizableTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "ok.jsonl")
	body := `# overlapping ops: the witness reorders the enqueue first
{"t":1,"k":"call","op":"TryDequeue()"}
{"t":0,"k":"call","op":"Enqueue(10)"}
{"t":0,"k":"ret","op":"Enqueue(10)","res":"ok"}
{"t":1,"k":"ret","op":"TryDequeue()","res":"10"}
`
	if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := captureStdout(t, func() error {
		code = run([]string{"monitor", "-trace", trace, "-model", "queue", "-v"})
		return nil
	})
	if code != 0 {
		t.Fatalf("linearizable trace must exit 0, got %d\noutput:\n%s", code, out)
	}
	if !contains(out, "verdict: linearizable") || !contains(out, "witness:") {
		t.Fatalf("missing verdict/witness:\n%s", out)
	}
}

func TestCmdMonitorStuckTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "stuck.jsonl")
	// Wait is stuck although Set completed last — the Fig. 9 shape.
	body := `{"t":1,"k":"call","op":"Set()"}
{"t":1,"k":"ret","op":"Set()","res":"ok"}
{"t":0,"k":"call","op":"Wait()"}
{"k":"stuck"}
`
	if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := captureStdout(t, func() error {
		code = run([]string{"monitor", "-trace", trace, "-model", "mre"})
		return nil
	})
	if code != 1 || !contains(out, "pending operation with no stuck serial witness") {
		t.Fatalf("generalized check must reject the lost wakeup (code %d):\n%s", code, out)
	}
	// The classic Definition 1 cannot see the lost wakeup.
	out = captureStdout(t, func() error {
		code = run([]string{"monitor", "-trace", trace, "-model", "mre", "-classic"})
		return nil
	})
	if code != 0 {
		t.Fatalf("classic check must accept the stuck trace (code %d):\n%s", code, out)
	}
}
