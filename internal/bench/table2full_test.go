//go:build table2full

package bench_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
)

// structural keeps the columns of a WriteTable2 line that a run's timing
// cannot move: class, causes, ser.avg, max, pass, fail, PB and stuck.
func structural(line string) string {
	parts := strings.Split(line, "|")
	if len(parts) != 3 {
		return strings.TrimSpace(line)
	}
	serial, phase2 := strings.Fields(parts[1]), strings.Fields(parts[2])
	if len(serial) != 4 || len(phase2) != 6 {
		return strings.TrimSpace(line)
	}
	return strings.Join(append(append(strings.Fields(parts[0]), serial[:2]...),
		phase2[0], phase2[1], phase2[4], phase2[5]), " ")
}

func structuralLines(text string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		out = append(out, structural(line))
	}
	return out
}

// TestTable2Full runs Table 2 at the paper's scale, 100 random 3x3 tests per
// class at seed 1, and checks its structure: every corrected class passes
// every sample, every (Pre) and intentional class fails at least once and
// carries its documented causes, and the structural columns equal the
// committed table2_output.txt (regenerated by `lineup table2 -samples 100
// -seed 1`). It takes minutes, so it is built only with -tags table2full
// (`make table2-full`).
func TestTable2Full(t *testing.T) {
	const samples = 100
	rows, err := bench.RunTable2(core.RandomOptions{Samples: samples, Rows: 3, Cols: 3, Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	byClass := make(map[string]bench.Table2Row)
	for _, r := range rows {
		byClass[r.Class] = r
	}
	causes := func(r bench.Table2Row) string {
		var cs []string
		for _, c := range strings.Fields(r.Causes) {
			cs = append(cs, c[:strings.IndexByte(c, '(')])
		}
		return strings.Join(cs, " ")
	}
	want := func(name string, documented []bench.Cause) {
		r, ok := byClass[name]
		if !ok {
			t.Errorf("%s: no row", name)
			return
		}
		var ds []string
		for _, c := range documented {
			ds = append(ds, string(c))
		}
		if got, want := causes(r), strings.Join(ds, " "); got != want {
			t.Errorf("%s: causes %q, documented %q", name, got, want)
		}
		switch {
		case len(documented) == 0 && (r.Failed != 0 || r.Passed != samples):
			t.Errorf("%s: %d passed, %d failed; a corrected class passes all %d", name, r.Passed, r.Failed, samples)
		case len(documented) > 0 && r.Failed == 0:
			t.Errorf("%s: no sample failed; causes %v are documented", name, documented)
		}
	}
	for _, e := range bench.Registry() {
		want(e.Subject.Name, e.Causes)
		if e.Pre != nil {
			want(e.Pre.Name, e.PreCauses)
		}
	}

	var buf bytes.Buffer
	bench.WriteTable2(&buf, rows)
	t.Logf("\n%s", buf.String())
	committed, err := os.ReadFile(filepath.Join("..", "..", "table2_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := structuralLines(buf.String()), structuralLines(string(committed))
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, table2_output.txt has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\ngot  %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}
