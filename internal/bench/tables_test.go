package bench_test

import (
	"bytes"
	"strings"
	"testing"

	"lineup/internal/bench"
	"lineup/internal/core"
)

func TestWriteTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	bench.WriteTable1(&buf)
	out := buf.String()
	for _, want := range []string{"Class", "ConcurrentQueue", "Barrier", "13 classes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

// TestRunTable2Tiny exercises the Table 2 harness end to end with a tiny
// sample, checking row structure and the expected verdict split: the
// intentional classes (Bag, BlockingCollection, Barrier) and the (Pre)
// variants fail some tests, the clean classes fail none.
func TestRunTable2Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("table harness is slow")
	}
	rows, err := bench.RunTable2(bench.Table2Options{
		RandomOptions: core.RandomOptions{Samples: 2, Rows: 2, Cols: 2, Seed: 5}, IncludePre: true,
	}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rows) != 21 { // 13 classes + 8 (Pre) variants
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	byClass := make(map[string]bench.Table2Row)
	for _, r := range rows {
		byClass[r.Class] = r
		if r.Passed+r.Failed != 2 {
			t.Errorf("%s: %d+%d tests, want 2", r.Class, r.Passed, r.Failed)
		}
		if r.SerialAvg <= 0 {
			t.Errorf("%s: no serial histories", r.Class)
		}
	}
	for _, clean := range []string{"Lazy", "ConcurrentQueue", "ConcurrentStack", "ConcurrentDictionary"} {
		if byClass[clean].Failed != 0 {
			t.Errorf("%s failed %d tiny tests", clean, byClass[clean].Failed)
		}
	}
	// Causes column present for the annotated classes.
	if byClass["Barrier"].Causes == "" {
		t.Errorf("Barrier row missing cause annotation")
	}
	var buf bytes.Buffer
	bench.WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Barrier") || !strings.Contains(buf.String(), "PB") {
		t.Fatalf("table 2 rendering broken:\n%s", buf.String())
	}
}
