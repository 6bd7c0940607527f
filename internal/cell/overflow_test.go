package cell_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cell"
)

// TestAddressOverflowFaults: an access whose address plus width
// overflows int64 ends the run in the named machine fault of the store
// it addresses — never a host panic, never a write that lands — and at
// the same cycle on the burst kernel and on the single-step path.
func TestAddressOverflowFaults(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"ls_overflow.dta", "ls: access"},
		{"mem_overflow.dta", "mem: access"},
	} {
		src, err := os.ReadFile("../../testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		var faults []string
		for _, burstMax := range []int{-1, 0} {
			cfg := cell.DefaultConfig()
			cfg.SPEs = 1
			cfg.SPU.BurstMax = burstMax
			m, err := cell.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if err == nil || !strings.Contains(err.Error(), "machine fault") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, BurstMax %d: err = %v, want a machine fault naming %q", tc.file, burstMax, err, tc.want)
			}
			faults = append(faults, err.Error())
		}
		if faults[0] != faults[1] {
			t.Fatalf("%s: single-step fault %q, burst fault %q", tc.file, faults[0], faults[1])
		}
	}
}
