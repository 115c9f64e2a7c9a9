package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"lineup/internal/obsfile"
)

// randomCheckpointVersion is the format version written by Save; Load
// refuses every other. Version 2 holds the run's RandomOptions in their
// written form where version 1 held seven hand-picked values.
const randomCheckpointVersion = 2

// TestCheckpoint is the durable record of one completed test inside a
// RandomCheck run: everything needed to rebuild its Result except the
// violation details, which are regenerated by re-running the (deterministic)
// check on resume.
type TestCheckpoint struct {
	// Index is the test's position in the sample sequence.
	Index int `json:"index"`
	// Failed records the verdict.
	Failed bool `json:"failed"`
	// ViolationKind is meaningful only when Failed.
	ViolationKind ViolationKind `json:"violation_kind,omitempty"`
	// Phase1 and Phase2 preserve the original run's statistics (including
	// durations), so aggregate numbers survive a resume unchanged.
	Phase1 PhaseStats `json:"phase1"`
	Phase2 PhaseStats `json:"phase2"`
	// Failures are the contained runtime failures of the test's phase 2.
	Failures []RuntimeFailure `json:"failures,omitempty"`
}

// RandomCheckpoint is the on-disk state of an interrupted RandomCheck run:
// the run as it was configured — the class by name and the RandomOptions in
// their written form, from which the identical test sequence is regenerated —
// plus one TestCheckpoint per completed test. It is written atomically after
// every completed test, so a run killed at any instant — even mid-write —
// leaves either the previous consistent checkpoint or the new one, never a
// torn file.
type RandomCheckpoint struct {
	Version int           `json:"version"`
	Subject string        `json:"subject"`
	Options RandomOptions `json:"options"`
	// Tests holds completed tests; entries may arrive in any order (parallel
	// runs complete out of order) but are keyed by Index.
	Tests []*TestCheckpoint `json:"tests"`
}

// Save writes the checkpoint atomically (temp file + rename); a concurrent
// reader or a crash mid-save never observes a partial file.
func (c *RandomCheckpoint) Save(path string) error {
	return obsfile.AtomicWriteJSON(path, c)
}

// checkpointPath is where RandomOptions.Dir keeps the run's checkpoint.
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// openCheckpoint returns the checkpoint this run keeps in opts.Dir and the
// tests a killed run with the same options recorded there: none without a
// Dir, or when the directory holds no checkpoint yet.
func openCheckpoint(sub *Subject, opts RandomOptions) (cp *RandomCheckpoint, saved []*TestCheckpoint, err error) {
	cp = &RandomCheckpoint{Version: randomCheckpointVersion, Subject: sub.Name, Options: opts}
	if opts.Dir == "" {
		return cp, nil, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	old, err := LoadRandomCheckpoint(checkpointPath(opts.Dir))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return cp, nil, nil
	case err != nil:
		return nil, nil, err
	}
	if err := old.validate(cp); err != nil {
		return nil, nil, err
	}
	return cp, old.Tests, nil
}

// LoadRandomCheckpoint reads a checkpoint written by Save.
func LoadRandomCheckpoint(path string) (*RandomCheckpoint, error) {
	var c RandomCheckpoint
	if err := LoadVersioned(path, "checkpoint", randomCheckpointVersion, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadVersioned reads one of the files a check is written down in (the
// RandomCheck checkpoint here; dist's manifest and job file; what is the noun
// the messages use). The version is decoded first and alone: a file of
// another version is refused with both numbers, never half-decoded into a
// struct whose fields meant something else. A field this build does not
// declare is refused by name, except the retired ones, which are dropped: an
// option read as unset is not the option that was written. So is a field this
// build always writes and the file lacks: an older build left it out for a
// zero value that meant something else then ("options.reduction" was none
// before sleep sets became the default). A missing file is an error that
// wraps fs.ErrNotExist.
func LoadVersioned(path, what string, version int, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: reading %s: %w", what, err)
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("core: parsing %s %s: %w", what, path, err)
	}
	if head.Version != version {
		return fmt.Errorf("core: %s %s has version %d, this build reads version %d", what, path, head.Version, version)
	}
	for _, field := range retired {
		data = dropField(data, strings.Split(field, "."))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("core: parsing %s %s: %w", what, path, err)
	}
	have, err := writtenFields(json.RawMessage(data))
	if err != nil {
		return err
	}
	want, err := writtenFields(into)
	if err != nil {
		return err
	}
	var missing []string
	for k := range want {
		if _, ok := have[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("core: %s %s does not record %s, which this build always writes", what, path, strings.Join(missing, ", "))
	}
	return nil
}

// dropField returns the JSON object data without the field at path, or data
// itself when there is no such field.
func dropField(data []byte, path []string) []byte {
	if !bytes.Contains(data, []byte(`"`+path[len(path)-1]+`"`)) {
		return data
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(data, &obj) != nil {
		return data
	}
	sub, ok := obj[path[0]]
	switch {
	case !ok:
		return data
	case len(path) == 1:
		delete(obj, path[0])
	default:
		obj[path[0]] = dropField(sub, path[1:])
	}
	out, err := json.Marshal(obj)
	if err != nil {
		return data
	}
	return out
}

// resumeFree names the written option fields a resumed run may change, because
// no result can show them: the worker count (TestWorkerCountUnobservable is
// the gate) and the watchdog interval (how long a hung execution is waited
// for, not whether it counts as hung). Every other written field is compared.
var resumeFree = map[string]bool{"explore_workers": true, "watchdog": true}

// retired names the written fields earlier builds wrote and this one no
// longer declares; LoadVersioned drops them. "options.workers" was the count
// of tests checked side by side, resume-free like explore_workers, which now
// covers both. "options.witness" said "monitor" where a model now says it
// alone ("spec" was the default and never written). "options.keep_spec" kept
// the synthesized specification in the result, which decided nothing. The
// schedule-sampling options ("sample_schedules", "sample_strategy",
// "sample_seed", "pct_depth") are gone but not retired: only a run that
// sampled wrote them, and resuming it exhaustively would mix sampled PASSes
// with exhaustive ones, so such a file is refused by name.
var retired = []string{"options.workers", "options.witness", "options.keep_spec"}

// ResumeMismatch compares what a file recorded with what this run would
// record, field by field over the written (JSON) form of both, and names
// every field that differs in one error, so an operator fixing a stale resume
// invocation sees the whole delta in a single pass. Nested objects are
// compared by their leaves ("options.seed"); the fields of resumeFree and
// the top-level fields named in progress (the part of the file that records
// how far the run got, not how it was configured) are skipped. file is the
// noun the message uses ("checkpoint", "manifest").
func ResumeMismatch(file string, saved, now any, progress ...string) error {
	was, err := writtenFields(saved)
	if err != nil {
		return err
	}
	is, err := writtenFields(now)
	if err != nil {
		return err
	}
	for k := range was {
		if _, ok := is[k]; !ok {
			is[k] = "unset"
		}
	}
	keys := make([]string, 0, len(is))
	for k := range is {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		w, ok := was[k]
		if !ok {
			w = "unset"
		}
		if w != is[k] && !resumeFree[k[strings.LastIndexByte(k, '.')+1:]] && !slices.Contains(progress, k) {
			bad = append(bad, fmt.Sprintf("%s is %s in the %s but %s here", k, w, file, is[k]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("core: %s does not match this run: %s", file, strings.Join(bad, "; "))
	}
	return nil
}

// writtenFields marshals v and flattens the result into leaf path -> compact
// JSON text.
func writtenFields(v any) (map[string]string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	var walk func(prefix string, raw json.RawMessage)
	walk = func(prefix string, raw json.RawMessage) {
		var obj map[string]json.RawMessage
		if len(raw) == 0 || raw[0] != '{' || json.Unmarshal(raw, &obj) != nil {
			out[strings.TrimPrefix(prefix, ".")] = string(raw)
			return
		}
		for k, sub := range obj {
			walk(prefix+"."+k, sub)
		}
	}
	walk("", data)
	return out, nil
}

// validate rejects a checkpoint recorded under a different configuration
// than now's: resuming it would silently check a different test sequence, or
// mix statistics of runs that are not comparable.
func (c *RandomCheckpoint) validate(now *RandomCheckpoint) error {
	if err := ResumeMismatch("checkpoint", c, now, "tests"); err != nil {
		return err
	}
	for _, t := range c.Tests {
		if t != nil && (t.Index < 0 || t.Index >= now.Options.Samples) {
			return fmt.Errorf("core: checkpoint test index %d out of range [0, %d)", t.Index, now.Options.Samples)
		}
	}
	return nil
}

// record captures a completed test result as a checkpoint entry.
func (c *RandomCheckpoint) record(k int, r *Result) {
	t := &TestCheckpoint{
		Index:    k,
		Failed:   r.Verdict == Fail,
		Phase1:   r.Phase1,
		Phase2:   r.Phase2,
		Failures: r.Failures,
	}
	if r.Violation != nil {
		t.ViolationKind = r.Violation.Kind
	}
	c.Tests = append(c.Tests, t)
}

// restore rebuilds the Result of one checkpointed test. Violation details
// are not serialized; the restored Result keeps Violation nil (see
// Result.Violation) and RandomCheck re-runs the first failing test to
// regenerate the full report.
func (t *TestCheckpoint) restore(sub *Subject, test *Test) *Result {
	r := &Result{
		Subject:  sub,
		Test:     test,
		Phase1:   t.Phase1,
		Phase2:   t.Phase2,
		Failures: t.Failures,
	}
	if t.Failed {
		r.Verdict = Fail
	}
	return r
}
