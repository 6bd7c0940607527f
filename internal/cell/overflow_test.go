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
		guestFault(t, tc.file, 1, tc.want)
	}
}

// TestRunningFrameStoreFaults: a store from another SPE into the frame
// of a running thread, which reads that frame inside kernel windows the
// while, ends the run in the LSE's "SC already 0" fault — the store
// never lands — at the same cycle on the burst kernel and single-step.
func TestRunningFrameStoreFaults(t *testing.T) {
	guestFault(t, "running_frame_store.dta", 2, "SC already 0")
}

// guestFault runs the guest in testdata/file on spes SPEs single-step
// and with the kernel on, and requires both to end in the same machine
// fault, naming want.
func guestFault(t *testing.T, file string, spes int, want string) {
	t.Helper()
	src, err := os.ReadFile("../../testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var faults []string
	for _, burstMax := range []int{-1, 0} {
		cfg := cell.DefaultConfig()
		cfg.SPEs = spes
		cfg.SPU.BurstMax = burstMax
		m, err := cell.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if err == nil || !strings.Contains(err.Error(), "machine fault") || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s, BurstMax %d: err = %v, want a machine fault naming %q", file, burstMax, err, want)
		}
		faults = append(faults, err.Error())
	}
	if faults[0] != faults[1] {
		t.Fatalf("%s: single-step fault %q, burst fault %q", file, faults[0], faults[1])
	}
}
