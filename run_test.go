package celldta

import (
	"strings"
	"testing"
)

// TestRunRejectsInvalidConfig: only the zero Config selects the paper's
// machine. A partly filled one that fails validation is an error, never
// a silent 8-SPE, 150-cycle run.
func TestRunRejectsInvalidConfig(t *testing.T) {
	var cfg Config
	cfg.Mem.Latency = 10
	res, err := Run(RunOptions{Workload: "mmul", Params: Params{N: 16, Seed: 42}, Config: cfg})
	if err == nil {
		t.Fatalf("Run with 0 SPEs and latency 10 took %d cycles, want an error", res.Cycles)
	}
	if !strings.Contains(err.Error(), "SPEs = 0") {
		t.Fatalf("Run error = %v, want the SPE count named", err)
	}
}
