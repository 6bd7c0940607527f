package spu

import (
	"testing"

	"repro/internal/isa"
)

// Internal tests for the decode-time half of the burst fast path: the
// per-block uop tables and the dual burst masks, including the
// dependent-pair rule that lets the cycle before a store/WRITE
// pre-execute. The cycle-exactness of what these masks permit is
// enforced end-to-end by the burst differential suites; here we pin
// the static classification itself.

func decodeNew(code []isa.Instruction) []uop {
	return NewCode(DefaultConfig()).decode(code).uops
}

func flagsOf(t *testing.T, code []isa.Instruction, pc int) uint8 {
	t.Helper()
	us := decodeNew(code)
	return us[pc].flags
}

func TestUopMaskPureComputeRun(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.MULI, Rd: 2, Ra: 1, Imm: 3},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, code, 0); f&uopBurstReg == 0 || f&uopBurstLS == 0 {
		t.Errorf("compute pair flags = %#x, want both burst bits", f)
	}
	// The last instruction never bursts: block transitions run on the
	// engine clock.
	if f := flagsOf(t, code, 2); f&(uopBurstReg|uopBurstLS) != 0 {
		t.Errorf("last-instruction flags = %#x, want no burst bits", f)
	}
}

func TestUopMaskLSReadNeedsHorizon(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.LSRD, Rd: 1, Ra: 2, Imm: 0},
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 1},
		{Op: isa.STOP},
	}
	f := flagsOf(t, code, 0)
	if f&uopBurstLS == 0 {
		t.Errorf("(lsrd, add) flags = %#x, want uopBurstLS", f)
	}
	if f&uopBurstReg != 0 {
		t.Errorf("(lsrd, add) flags = %#x: an LS read is not register-only", f)
	}
}

// The dependent-pair rule: a cycle whose second instruction is not
// burst-safe may still pre-execute when that instruction provably
// cannot dual-issue — it reads the first's destination (result latency
// >= 1) or competes for the same slot.
func TestUopMaskDependentPair(t *testing.T) {
	// write reads r4 (its address source Ra) which the add produces.
	dep := []isa.Instruction{
		{Op: isa.ADD, Rd: 4, Ra: 2, Rb: 3},
		{Op: isa.WRITE, Rd: 5, Ra: 4, Imm: 0},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, dep, 0); f&uopBurstReg == 0 {
		t.Errorf("(add r4..., write [r4]) flags = %#x, want uopBurstReg (write cannot join)", f)
	}

	// Independent write: it could dual-issue with the add, so the cycle
	// must run on the engine clock.
	indep := []isa.Instruction{
		{Op: isa.ADD, Rd: 4, Ra: 2, Rb: 3},
		{Op: isa.WRITE, Rd: 5, Ra: 6, Imm: 0},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, indep, 0); f&(uopBurstReg|uopBurstLS) != 0 {
		t.Errorf("(add, independent write) flags = %#x, want no burst bits", f)
	}

	// Same-slot pair: two memory-slot instructions can never share a
	// cycle, so the first may pre-execute even though the second is a
	// store.
	slot := []isa.Instruction{
		{Op: isa.LSRD, Rd: 1, Ra: 2, Imm: 0},
		{Op: isa.LSWR, Rd: 1, Ra: 2, Imm: 8},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, slot, 0); f&uopBurstLS == 0 {
		t.Errorf("(lsrd, lswr) flags = %#x, want uopBurstLS (structural exclusion)", f)
	}

	// A RegZero destination leaves no scoreboard trace and proves
	// nothing.
	zero := []isa.Instruction{
		{Op: isa.ADD, Rd: 0, Ra: 2, Rb: 3},
		{Op: isa.WRITE, Rd: 5, Ra: 0, Imm: 0},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, zero, 0); f&(uopBurstReg|uopBurstLS) != 0 {
		t.Errorf("(add r0..., write [r0]) flags = %#x, want no burst bits", f)
	}

	// Branches write no destination register; a branch before a store
	// may fall through into a dual-issue, so it must not pre-execute.
	br := []isa.Instruction{
		{Op: isa.BEQ, Ra: 2, Rb: 3, Imm: 0},
		{Op: isa.WRITE, Rd: 5, Ra: 6, Imm: 0},
		{Op: isa.STOP},
	}
	if f := flagsOf(t, br, 0); f&(uopBurstReg|uopBurstLS) != 0 {
		t.Errorf("(beq, write) flags = %#x, want no burst bits", f)
	}
}

func TestUopOperandAndSlotMetadata(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.STORE, Rd: 7, Ra: 8, Imm: 2}, // stores read Rd too
		{Op: isa.MULI, Rd: 2, Ra: 1, Imm: 3},
	}
	us := decodeNew(code)
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
