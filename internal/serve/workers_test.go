package serve

import (
	"runtime"
	"testing"

	"lineup/internal/monitor"
)

// TestWorkersDefaultToOnePerCPU: a zero Workers starts one checker per CPU
// the process may use, so under GOMAXPROCS=1 one, whatever the machine has.
func TestWorkersDefaultToOnePerCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := New(Config{Model: monitor.RegisterModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.workers); n != 1 {
		t.Errorf("GOMAXPROCS=1 on %d CPUs: %d workers, want 1", runtime.NumCPU(), n)
	}
}
