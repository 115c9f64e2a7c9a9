package dist

import (
	"runtime"
	"testing"

	"lineup/internal/core"
)

// TestWorkersDefaultToOnePerCPU: a zero Workers leases one unit per CPU the
// process may use, so under GOMAXPROCS=1 one, whatever the machine has.
func TestWorkersDefaultToOnePerCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg, err := Config{Subject: &core.Subject{}, Test: &core.Test{}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 1 {
		t.Errorf("GOMAXPROCS=1 on %d CPUs: %d workers, want 1", runtime.NumCPU(), cfg.Workers)
	}
}
