//go:build !race

package obsfile

import (
	"bytes"
	"testing"
)

// TestReadTraceAllocs is the allocation ceiling of ReadTrace: the input
// string, the event slice and the tracker, whatever the trace's length
// (measured 5 on 2 000 events, where three strings per event made 3 021).
// Race instrumentation inflates the counts, so the file is not built with
// -race.
func TestReadTraceAllocs(t *testing.T) {
	trace := benchTrace(1000)
	allocs := testing.AllocsPerRun(20, func() {
		if h, err := ReadTrace(bytes.NewReader(trace)); err != nil || len(h.Events) != 2000 {
			t.Fatalf("ReadTrace: %v", err)
		}
	})
	t.Logf("ReadTrace of 2 000 events: %.0f allocs", allocs)
	if allocs > 16 {
		t.Errorf("ReadTrace allocates %.0f times on 2 000 events, over its ceiling of 16", allocs)
	}
}
