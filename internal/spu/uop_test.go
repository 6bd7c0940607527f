package spu

import (
	"testing"

	"repro/internal/isa"
)

// Internal tests for the decode-time half of the SPU: the per-block uop
// tables. Whether a kernel window may take a cycle is decided at run
// time (SPU.alone, run) and pinned by the kernel edge tests.

func decodeNew(code []isa.Instruction) []uop {
	return NewCode(DefaultConfig()).decode(code).uops
}

func TestUopOperandAndSlotMetadata(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.STORE, Rd: 7, Ra: 8, Imm: 2}, // stores read Rd too
		{Op: isa.MULI, Rd: 2, Ra: 1, Imm: 3},
		{Op: isa.LSRD, Rd: 3, Ra: 1},
	}
	us := decodeNew(code)
	for pc, want := range []uint8{0, uopReg, uopLS} { // a store is no burst class
		if got := us[pc].flags & (uopReg | uopLS); got != want {
			t.Errorf("%s class bits = %#x, want %#x", us[pc].ins.Op, got, want)
		}
	}
	if us[0].nsrc != 2 || us[0].srcs[0] != 8 || us[0].srcs[1] != 7 {
		t.Errorf("store sources = %v x%d, want [8 7]", us[0].srcs, us[0].nsrc)
	}
	if us[0].flags&uopMem == 0 {
		t.Error("store must occupy the memory slot")
	}
	if us[1].flags&uopMem != 0 {
		t.Error("muli must occupy the compute slot")
	}
	if got := int(us[1].lat); got != DefaultConfig().LatMUL {
		t.Errorf("muli latency = %d, want %d", got, DefaultConfig().LatMUL)
	}
}
