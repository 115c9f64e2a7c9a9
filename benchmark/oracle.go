package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lineup/internal/core"
	"lineup/internal/monitor"
)

// The goldens pin, per workload and seed, the outcome of every generated
// check: "F/<kind>" for a violation, "P/<full>/<stuck>" (distinct phase-2
// histories) for a pass. Schedule counts are left out on purpose — an
// optimisation may change them. They were recorded with -record, which
// cross-checks each verdict against core.CheckWithMonitor where the class
// has an executable model. A seed without a golden is still run and checked
// against what holds by construction (corrected classes pass, directed cause
// cases fail with the registry's hand-written kind), but its random
// defect-seeded tests have no known answer.
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden maps seed → item id → outcome.
type golden map[string]map[string]string

// goldens parses the embedded files once; set-up runs several times a run.
var goldens = sync.OnceValue(func() map[string]golden {
	all := make(map[string]golden)
	for _, kind := range []string{"check-pass", "check-deep", "check-hunt"} {
		data, err := goldenFS.ReadFile("golden/" + kind + ".json")
		if err != nil {
			panic(fmt.Sprintf("benchmark: %v", err))
		}
		var g golden
		if err := json.Unmarshal(data, &g); err != nil {
			panic(fmt.Sprintf("benchmark: golden/%s.json: %v", kind, err))
		}
		all[kind] = g
	}
	return all
})

func parseOutcome(s string) (*want, error) {
	f := strings.Split(s, "/")
	nums := make([]int, len(f)-1)
	for i := range nums {
		n, err := strconv.Atoi(f[i+1])
		if err != nil {
			return nil, fmt.Errorf("bad golden outcome %q", s)
		}
		nums[i] = n
	}
	switch {
	case f[0] == "F" && len(nums) == 1:
		return &want{fail: true, kind: core.ViolationKind(nums[0])}, nil
	case f[0] == "P" && len(nums) == 2:
		return &want{full: nums[0], stuck: nums[1]}, nil
	}
	return nil, fmt.Errorf("bad golden outcome %q", s)
}

// applyGolden fills in the known answers recorded for this seed. An answer
// known by construction is never replaced, only refined: a PASS gains the
// pinned history counts.
func applyGolden(kind string, seed int64, items []checkItem) {
	g := goldens()[kind][strconv.FormatInt(seed, 10)]
	for i := range items {
		it := &items[i]
		s, ok := g[it.id]
		if !ok {
			continue
		}
		wt, err := parseOutcome(s)
		if err != nil {
			panic("benchmark: " + err.Error())
		}
		switch {
		case it.want == nil:
			it.want = wt
		case !it.want.fail && !wt.fail:
			it.want = wt // adds the pinned history counts to a PASS
		}
	}
}

// record regenerates the goldens of the three check workloads for the given
// seeds and writes them to benchmark/golden.
func record(seeds []int64) error {
	const dir = "benchmark/golden"
	for _, kind := range []string{"check-pass", "check-deep", "check-hunt"} {
		g := make(golden)
		for _, seed := range seeds {
			w := &checkWorkload{kind: kind}
			w.build(newConfig(seed, 0, false))
			entries := make(map[string]string)
			for i := range w.items {
				it := &w.items[i]
				res, err := core.Check(it.sub, it.test, it.opts)
				if err != nil {
					return fmt.Errorf("record %s seed %d %s: %w", kind, seed, it.id, err)
				}
				if err := it.crossCheck(res); err != nil {
					return fmt.Errorf("record %s seed %d: %w", kind, seed, err)
				}
				if wt := it.want; wt != nil && wt.fail && (res.Verdict != core.Fail || res.Violation.Kind != wt.kind) {
					return fmt.Errorf("record %s seed %d %s: got %s, the registry says FAIL/%d", kind, seed, it.id, outcome(res), int(wt.kind))
				}
				entries[it.id] = outcome(res)
			}
			g[strconv.FormatInt(seed, 10)] = entries
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d outcomes\n", kind, seed, len(entries))
		}
		// One line per seed keeps the file small and its diffs readable.
		var b strings.Builder
		b.WriteString("{\n")
		for i, seed := range sortedKeys(g) {
			line, err := json.Marshal(g[seed])
			if err != nil {
				return err
			}
			if i > 0 {
				b.WriteString(",\n")
			}
			fmt.Fprintf(&b, "%q: %s", seed, line)
		}
		b.WriteString("\n}\n")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, kind+".json"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayWitness steps the generator's construction-order witness through the
// model and reports the first operation whose result differs. This is the
// benchmark's own proof that a generated history is linearizable: the
// witness lists the operations in return order, so it respects real-time
// precedence by construction, and the model — not the search under test —
// confirms every result.
func replayWitness(model *monitor.Model, wit []step) error {
	state := model.Init()
	for i, s := range wit {
		res, next, err := model.Step(state, s.Op)
		if err != nil {
			return fmt.Errorf("witness step %d %s: %w", i, s.Op, err)
		}
		if res != s.Res {
			return fmt.Errorf("witness step %d %s: generator says %s, model says %s", i, s.Op, s.Res, res)
		}
		state = next
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
