package spu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// Internal tests for the decode-time half of the burst fast path: the
// per-block uop tables and the dual burst masks, including the
// dependent-pair rule that lets the cycle before a store/WRITE
// pre-execute. The cycle-exactness of what these masks permit is
// enforced end-to-end by the burst differential suites; here we pin
// the static classification itself.

func testSPU() *SPU {
	return &SPU{cfg: DefaultConfig()}
}

func flagsOf(t *testing.T, code []isa.Instruction, pc int) uint8 {
	t.Helper()
	us := testSPU().buildUops(code)
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
		t.Errorf("(lsrd, add) flags = %#x: LS read must not be horizon-free", f)
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
	us := testSPU().buildUops(code)
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
	if us[0].cls != iclsStore || us[1].cls != iclsOther {
		t.Errorf("instruction classes = %d,%d, want %d,%d", us[0].cls, us[1].cls, iclsStore, iclsOther)
	}
}

// TestUopArenaReuse drives the decode arena the way a pooled machine
// does — Reset to a program, decode its blocks as they are reached — and
// holds every table against a decode into new memory, after everything
// that could have clobbered it: tables carved earlier survive the arena
// growing, a re-run of the same program keeps its tables and carves the
// blocks it reaches for the first time behind them, and a Reset to a
// smaller program decodes over the old tables, in place, with nothing of
// them showing through.
func TestUopArenaReuse(t *testing.T) {
	block := func(n int, ins ...isa.Instruction) []isa.Instruction {
		var code []isa.Instruction
		for len(code) < n {
			code = append(code, ins...)
		}
		return code
	}
	prog := func(blocks ...[]isa.Instruction) *program.Program {
		p := &program.Program{}
		for i := 0; i < len(blocks); i += int(program.NumBlocks) {
			tmpl := &program.Template{ID: len(p.Templates)}
			copy(tmpl.Blocks[:], blocks[i:])
			p.Templates = append(p.Templates, tmpl)
		}
		return p
	}
	stores := block(40, isa.Instruction{Op: isa.STORE, Rd: 7, Ra: 8, Imm: 2}, isa.Instruction{Op: isa.LSWRX, Rd: 3, Ra: 4, Rb: 5})
	compute := block(9, isa.Instruction{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}, isa.Instruction{Op: isa.NOP})
	reads := block(24, isa.Instruction{Op: isa.LSRD, Rd: 1, Ra: 2}, isa.Instruction{Op: isa.BEQ, Ra: 1, Rb: 2})
	big := prog(compute, stores, reads, block(200, isa.Instruction{Op: isa.MUL, Rd: 1, Ra: 1, Rb: 2}),
		stores, nil, compute, reads)
	small := prog(nil, compute[:3], reads[:5], block(2, isa.Instruction{Op: isa.STOP}))

	s := testSPU()
	type table struct {
		tmpl int
		k    program.BlockKind
		uops []uop
	}
	var live []table // tables of the current program, as uopsFor returned them
	decode := func(tmpl int) {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			live = append(live, table{tmpl, k, s.uopsFor(tmpl, k)})
		}
	}
	verify := func(p *program.Program, when string) {
		t.Helper()
		for _, tb := range live {
			want := testSPU().buildUops(p.Templates[tb.tmpl].Blocks[tb.k])
			if !slices.Equal(tb.uops, want) {
				t.Errorf("%s: template %d %s block differs from a decode into new memory", when, tb.tmpl, tb.k)
			}
			if again := s.uopsFor(tb.tmpl, tb.k); len(want) > 0 && &again[0] != &tb.uops[0] {
				t.Errorf("%s: template %d %s block was decoded a second time", when, tb.tmpl, tb.k)
			}
		}
	}

	// From nothing: the arena grows under the tables already carved.
	s.Reset(big)
	decode(0)
	decode(1)
	verify(big, "first program")

	// A smaller program: over the old tables, in the same memory.
	chunk := &s.uopArena[:1][0]
	s.Reset(small)
	live = nil
	decode(0)
	verify(small, "smaller program")
	if &s.uopArena[:1][0] != chunk {
		t.Error("a program that fits the arena was decoded into new memory")
	}
	if want := small.CodeLen(); len(s.uopArena) != want {
		t.Errorf("arena holds %d uops after a %d-instruction program: Reset did not rewind it", len(s.uopArena), want)
	}

	// The same program twice, the second run reaching a template the first
	// did not: its tables are kept, so the arena under them must be too.
	s.Reset(big)
	live = nil
	decode(0)
	s.Reset(big)
	decode(1)
	verify(big, "second run of the same program")
}
