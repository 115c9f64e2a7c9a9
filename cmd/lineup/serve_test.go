package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lineup/internal/monitor"
	"lineup/internal/obsfile"
	"lineup/internal/serve"
)

// genRegisterPartition generates one complete single-partition register
// history as raw trace events: results are assigned at return time by
// stepping a live model, so the partition is linearizable by construction.
// Threads are drawn from [base, base+3) so several partitions interleave in
// one globally well-formed trace.
func genRegisterPartition(rng *rand.Rand, key string, base, nOps int) []obsfile.TraceEvent {
	m := monitor.RegisterModel()
	state := m.Init()
	open := map[int]string{}
	const threads = 3
	var evs []obsfile.TraceEvent
	issued := 0
	for issued < nOps || len(open) > 0 {
		th := base + rng.Intn(threads)
		if op, busy := open[th]; busy && rng.Intn(2) == 0 {
			res, next, err := m.Step(state, op)
			if err != nil {
				panic(err)
			}
			state = next
			evs = append(evs, obsfile.TraceEvent{T: th, K: "ret", Op: op, Res: res})
			delete(open, th)
		} else if !busy && issued < nOps {
			var op string
			if rng.Intn(2) == 0 {
				op = fmt.Sprintf("Write(%d)", 1+rng.Intn(3))
			} else {
				op = "Read()"
			}
			evs = append(evs, obsfile.TraceEvent{T: th, K: "call", Op: op, P: key})
			open[th] = op
			issued++
		}
	}
	return evs
}

// genServeEvents generates the deterministic multi-partition register trace
// of the serve CLI tests: `partitions` independent partitions of `opsPer`
// operations each, interleaved. The last partition is corrupted (one return
// result is overwritten with an impossible value) so the trace is NOT
// linearizable.
func genServeEvents(t *testing.T, partitions, opsPer int) []obsfile.TraceEvent {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	parts := make([][]obsfile.TraceEvent, partitions)
	for i := range parts {
		parts[i] = genRegisterPartition(rng, fmt.Sprintf("r%d", i), i*10, opsPer)
	}
	// Corrupt one mid-partition return of the last partition.
	last := parts[partitions-1]
	corrupted := false
	for i := len(last) * 3 / 5; i < len(last); i++ {
		if last[i].K == "ret" {
			last[i].Res = "777"
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("generated partition has no return past the 60% mark")
	}
	var evs []obsfile.TraceEvent
	idx := make([]int, partitions)
	live := partitions
	for live > 0 {
		p := rng.Intn(partitions)
		if idx[p] >= len(parts[p]) {
			continue
		}
		evs = append(evs, parts[p][idx[p]])
		idx[p]++
		if idx[p] == len(parts[p]) {
			live--
		}
	}
	return evs
}

// encodeServeTrace writes the events to path in the given wire encoding
// ("jsonl" or "batch" frames) — the same sequence either way, so runs over
// the two files must agree bit for bit on verdicts.
func encodeServeTrace(t *testing.T, path, mode string, evs []obsfile.TraceEvent) {
	t.Helper()
	var buf bytes.Buffer
	if mode == "batch" {
		fw := obsfile.NewFrameWriter(&buf)
		for _, ev := range evs {
			if err := fw.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		enc := json.NewEncoder(&buf)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeServeTrace writes the fixture trace as JSONL and returns the total
// event count.
func writeServeTrace(t *testing.T, path string, partitions, opsPer int) int {
	t.Helper()
	evs := genServeEvents(t, partitions, opsPer)
	encodeServeTrace(t, path, "jsonl", evs)
	return len(evs)
}

// serveVerdictLines keeps only the deterministic report lines of a serve
// run — the final verdict and the per-partition failure lines — dropping
// the wall-clock-bearing stats lines.
func serveVerdictLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "verdict:") || strings.HasPrefix(line, "  partition") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// runServe runs the built binary and returns stdout; exit status 1 (the
// violation exit) is expected, anything else fails the test.
func runServe(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: %v\nstderr:\n%s", args, err, stderr.String())
		}
	}
	return stdout.String()
}

// TestServeCheckpointResumeAfterKill is the end-to-end acceptance check for
// the streaming service's durability, run once per wire encoding (JSONL and
// -batch binary frames over the same event sequence): a 'lineup serve
// -checkpoint' process is SIGKILLed mid-stream, then resumed with '-resume';
// the final verdicts must match the uninterrupted run's bit for bit (one
// partition of the fixture trace is corrupted, so the runs must agree on a
// violation), and the two encodings' verdicts must match each other.
func TestServeCheckpointResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short mode")
	}
	bin := buildLineup(t)
	evs := genServeEvents(t, 4, 30000)
	total := len(evs)

	// Verdict lines of the first (jsonl) baseline; the batch baseline must
	// reproduce them exactly — the cross-encoding half of the gate.
	crossWant := ""
	for _, mode := range []string{"jsonl", "batch"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			trace := filepath.Join(dir, "trace."+mode)
			encodeServeTrace(t, trace, mode, evs)
			args := func(extra ...string) []string {
				a := []string{
					"serve", "-model", "register", "-trace", trace,
					"-window", "64", "-workers", "2",
				}
				if mode == "batch" {
					a = append(a, "-batch")
				}
				return append(a, extra...)
			}
			base := runServe(t, bin, args()...)
			want := serveVerdictLines(base)
			if !strings.Contains(want, "NOT linearizable") || !strings.Contains(want, `partition "r3"`) {
				t.Fatalf("baseline run missed the planted violation; fixture broken:\n%s", base)
			}
			if crossWant == "" {
				crossWant = want
			} else if want != crossWant {
				t.Fatalf("%s verdicts differ from jsonl verdicts:\n--- %s ---\n%s\n--- jsonl ---\n%s", mode, mode, want, crossWant)
			}

			ck := filepath.Join(dir, "serve.ckpt")
			victim := exec.Command(bin, args("-checkpoint", ck, "-checkpoint-every", "2048")...)
			if err := victim.Start(); err != nil {
				t.Fatalf("starting victim: %v", err)
			}
			// Kill -9 as soon as the first automatic checkpoint lands.
			deadline := time.Now().Add(60 * time.Second)
			for {
				if cp, err := serve.Load(ck); err == nil && cp.Tracker.Events >= 1 {
					break
				}
				if time.Now().After(deadline) {
					victim.Process.Kill()
					victim.Wait()
					t.Fatal("victim wrote no checkpoint within 60s")
				}
				time.Sleep(time.Millisecond)
			}
			if err := victim.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			victim.Wait() // expected to report the kill; the checkpoint is what matters

			cp, err := serve.Load(ck)
			if err != nil {
				t.Fatalf("checkpoint unreadable after SIGKILL (atomic write broken?): %v", err)
			}
			if cp.Tracker.Events >= int64(total) {
				t.Fatalf("victim checkpointed all %d events before the kill; fixture too fast", total)
			}
			t.Logf("killed %s victim after %d of %d events", mode, cp.Tracker.Events, total)

			resumed := runServe(t, bin, args("-checkpoint", ck, "-resume")...)
			if got := serveVerdictLines(resumed); got != want {
				t.Errorf("resumed verdicts differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
		})
	}
}

// TestServeResumeWindowMismatch asserts a checkpoint written under one
// window size cannot be resumed under another: window boundaries decide
// which cuts are retired, so silently mixing them could change verdict
// provenance.
func TestServeResumeWindowMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short mode")
	}
	bin := buildLineup(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	writeServeTrace(t, trace, 2, 200)
	ck := filepath.Join(dir, "serve.ckpt")
	cmd := exec.Command(bin, "serve", "-model", "register", "-trace", trace,
		"-window", "16", "-checkpoint", ck)
	if out, err := cmd.CombinedOutput(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("checkpointed run: %v\n%s", err, out)
		}
	}
	out, err := exec.Command(bin, "serve", "-model", "register", "-trace", trace,
		"-window", "32", "-checkpoint", ck, "-resume").CombinedOutput()
	if err == nil {
		t.Fatalf("resume with a different window size must fail:\n%s", out)
	}
	if !strings.Contains(string(out), "window") {
		t.Fatalf("mismatch diagnostic does not mention the window:\n%s", out)
	}
}

// TestServeStdinFramesMatchHTTPFrames pins the service's two frame transports
// to one path: the same frame stream piped into 'lineup serve -batch' and
// POSTed to a second server's /ingest with obsfile.BatchContentType must print
// identical verdict lines (one partition of the fixture is corrupted, so both
// must report the same violation).
func TestServeStdinFramesMatchHTTPFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes; skipped in -short mode")
	}
	bin := buildLineup(t)
	frames := filepath.Join(t.TempDir(), "trace.batch")
	encodeServeTrace(t, frames, "batch", genServeEvents(t, 3, 400))
	payload, err := os.ReadFile(frames)
	if err != nil {
		t.Fatal(err)
	}
	common := []string{"serve", "-model", "register", "-window", "16", "-workers", "2"}

	piped := exec.Command(bin, append(common, "-batch")...)
	piped.Stdin = bytes.NewReader(payload)
	var pipedOut bytes.Buffer
	piped.Stdout = &pipedOut
	if err := piped.Run(); err == nil {
		t.Fatalf("piped run missed the planted violation:\n%s", pipedOut.String())
	}
	want := serveVerdictLines(pipedOut.String())
	if !strings.Contains(want, "NOT linearizable") || !strings.Contains(want, `partition "r2"`) {
		t.Fatalf("piped run missed the planted violation; fixture broken:\n%s", pipedOut.String())
	}

	// The HTTP server reads an (empty) JSONL stdin that stays open until the
	// POST is in; closing it ends the stream and prints the summary.
	posted := exec.Command(bin, append(common, "-http", "127.0.0.1:0")...)
	stdin, err := posted.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := posted.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var postedOut bytes.Buffer
	posted.Stdout = &postedOut
	if err := posted.Start(); err != nil {
		t.Fatalf("starting the HTTP server: %v", err)
	}
	defer posted.Process.Kill()
	const marker = "serve: ingest endpoint on "
	url := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), marker); i >= 0 {
			url = sc.Text()[i+len(marker):]
			break
		}
	}
	if url == "" {
		t.Fatalf("server never announced its endpoint (stderr closed: %v)", sc.Err())
	}
	// Alerts keep coming: drain them so the server never blocks on a full
	// pipe, and finish reading before Wait closes it.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, stderr)
	}()
	resp, err := http.Post(url+"/ingest", obsfile.BatchContentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}
	stdin.Close()
	<-drained
	if err := posted.Wait(); err == nil {
		t.Fatalf("posted run missed the planted violation:\n%s", postedOut.String())
	}
	if got := serveVerdictLines(postedOut.String()); got != want {
		t.Errorf("verdicts differ between transports:\n--- POST ---\n%s\n--- stdin ---\n%s", got, want)
	}
}
