package isa

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEveryOpcodeHasMetadata(t *testing.T) {
	for op := Op(0); op < Op(OpCount); op++ {
		info, ok := Lookup(op)
		if !ok {
			t.Fatalf("opcode %d has no metadata", op)
		}
		if info.Name == "" {
			t.Fatalf("opcode %d has empty name", op)
		}
		if info.Unit == UnitNone {
			t.Fatalf("opcode %s has no functional unit", info.Name)
		}
		back, ok := ByName(info.Name)
		if !ok || back != op {
			t.Fatalf("ByName(%q) = %v, %v; want %v", info.Name, back, ok, op)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup(Op(250)); ok {
		t.Fatal("Lookup accepted an undefined opcode")
	}
	if got := Op(250).String(); !strings.Contains(got, "250") {
		t.Fatalf("String for unknown op = %q", got)
	}
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	for op := Op(0); op < Op(OpCount); op++ {
		ins := Instruction{Op: op, Rd: 3, Ra: 7, Rb: 11, Imm: -12345}
		got := Decode(ins.Encode())
		if got != ins {
			t.Fatalf("round trip failed for %s: %+v != %+v", op, got, ins)
		}
	}
}

// Property: Decode(Encode(x)) == x for arbitrary field values, including
// ill-formed instructions (encoding is total).
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(op, rd, ra, rb uint8, imm int32) bool {
		ins := Instruction{Op: Op(op), Rd: rd, Ra: ra, Rb: rb, Imm: imm}
		return Decode(ins.Encode()) == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	cases := []Instruction{
		{Op: NOP},
		{Op: MOVI, Rd: 5, Imm: -7},
		{Op: ADD, Rd: 1, Ra: 2, Rb: 3},
		{Op: ADDI, Rd: 1, Ra: 2, Imm: 100},
		{Op: BEQ, Ra: 1, Rb: 2, Imm: 12},
		{Op: JMP, Imm: 3},
		{Op: LOAD, Rd: 9, Imm: 4},
		{Op: STORE, Rd: 9, Ra: 10, Imm: 4},
		{Op: READ, Rd: 9, Ra: 10, Imm: 0},
		{Op: LSRDX, Rd: 9, Ra: 10, Rb: 11, Imm: 8},
		{Op: FALLOC, Rd: 2, Imm: mustPack(t, 3, 4)},
		{Op: FFREE},
		{Op: STOP},
		{Op: MFCLSA, Ra: 80},
		{Op: MFCGET},
		{Op: MFCSTAT, Rd: 1},
	}
	for _, c := range cases {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", c, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		ins  Instruction
		name string
	}{
		{Instruction{Op: Op(200)}, "unknown opcode"},
		{Instruction{Op: ADD, Rd: 128, Ra: 1, Rb: 2}, "rd out of range"},
		{Instruction{Op: ADD, Rd: 1, Ra: 200, Rb: 2}, "ra out of range"},
		{Instruction{Op: NOP, Rd: 1}, "unused rd set"},
		{Instruction{Op: MOVI, Rd: 1, Ra: 2, Imm: 5}, "unused ra set"},
		{Instruction{Op: ADD, Rd: 1, Ra: 2, Rb: 3, Imm: 9}, "unused imm set"},
		{Instruction{Op: FALLOC, Rd: 1, Imm: -1}, "negative falloc packing"},
	}
	for _, c := range cases {
		if err := c.ins.Validate(); err == nil {
			t.Errorf("Validate accepted %s (%s)", c.ins, c.name)
		}
	}
}

func mustPack(t *testing.T, tmpl, sc int) int32 {
	t.Helper()
	imm, err := PackFalloc(tmpl, sc)
	if err != nil {
		t.Fatal(err)
	}
	return imm
}

func TestPackUnpackFalloc(t *testing.T) {
	imm, err := PackFalloc(300, 17)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, sc := UnpackFalloc(imm)
	if tmpl != 300 || sc != 17 {
		t.Fatalf("unpack = (%d, %d), want (300, 17)", tmpl, sc)
	}
	if _, err := PackFalloc(0x8000, 0); err == nil {
		t.Fatal("PackFalloc accepted template > 15 bits")
	}
	if _, err := PackFalloc(0, 0x10000); err == nil {
		t.Fatal("PackFalloc accepted sc > 16 bits")
	}
	if _, err := PackFalloc(-1, 0); err == nil {
		t.Fatal("PackFalloc accepted negative template")
	}
}

// Property: pack/unpack round-trips over the whole legal domain.
func TestPackFallocRoundTripProperty(t *testing.T) {
	f := func(tmplRaw, scRaw uint16) bool {
		tmpl := int(tmplRaw & 0x7FFF)
		sc := int(scRaw)
		imm, err := PackFalloc(tmpl, sc)
		if err != nil {
			return false
		}
		gt, gs := UnpackFalloc(imm)
		return gt == tmpl && gs == sc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Instruction{Op: NOP}, "nop"},
		{Instruction{Op: MOVI, Rd: 4, Imm: -2}, "movi r4, -2"},
		{Instruction{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instruction{Op: BEQ, Ra: 5, Rb: 6, Imm: 10}, "beq r5, r6, 10"},
		{Instruction{Op: JMP, Imm: 2}, "jmp 2"},
		{Instruction{Op: STORE, Rd: 7, Ra: 8, Imm: 3}, "store r7, r8, 3"},
		{Instruction{Op: LSRDX, Rd: 1, Ra: 2, Rb: 3, Imm: 4}, "lsrdx r1, r2, r3, 4"},
		{Instruction{Op: MFCLSA, Ra: 9}, "mfclsa r9"},
		{Instruction{Op: MFCSTAT, Rd: 2}, "mfcstat r2"},
		{Instruction{Op: FALLOC, Rd: 2, Imm: 3<<16 | 4}, "falloc r2, 3, 4"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestMemSlotClassification(t *testing.T) {
	memOps := []Op{LOAD, STORE, READ, WRITE, LSRD, LSWRX8, FALLOC, FFREE, STOP, MFCGET, MFCSTAT}
	for _, op := range memOps {
		if !MustInfo(op).Unit.MemSlot() {
			t.Errorf("%s should issue in the memory slot", op)
		}
	}
	computeOps := []Op{NOP, ADD, MUL, SHL, CMPEQ, JMP, BEQ, MOVI}
	for _, op := range computeOps {
		if MustInfo(op).Unit.MemSlot() {
			t.Errorf("%s should issue in the compute slot", op)
		}
	}
}

func TestMustInfoPanicsOnUndefined(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInfo did not panic for undefined opcode")
		}
	}()
	MustInfo(Op(240))
}

func TestBurstClasses(t *testing.T) {
	// The LS-read class is exactly the local-store/frame reads, the
	// LS-write class exactly the direct local-store writes; the
	// register class is exactly the compute/control ops; everything
	// that talks to another component (frame stores through the LSE,
	// main-memory traffic, DMA) is BurstNone.
	wantLS := map[Op]bool{LSRD: true, LSRD8: true, LSRDX: true, LSRDX8: true,
		LOAD: true, LOADX: true}
	wantLSW := map[Op]bool{LSWR: true, LSWR8: true, LSWRX: true, LSWRX8: true}
	for op := Op(0); int(op) < OpCount; op++ {
		info, ok := Lookup(op)
		if !ok {
			continue
		}
		cls := ClassOf(op)
		if wantLS[op] != (cls == BurstLSRead) {
			t.Errorf("%s: class %d, want BurstLSRead=%v", info.Name, cls, wantLS[op])
		}
		if wantLSW[op] != (cls == BurstLSWrite) {
			t.Errorf("%s: class %d, want BurstLSWrite=%v", info.Name, cls, wantLSW[op])
		}
		switch info.Unit {
		case UnitFX, UnitSH, UnitMUL, UnitDIV, UnitCTL:
			if cls != BurstReg {
				t.Errorf("%s: class %d, want BurstReg", info.Name, cls)
			}
		case UnitMEM, UnitDTA, UnitMFC:
			if cls != BurstNone {
				t.Errorf("%s: class %d, want BurstNone", info.Name, cls)
			}
		}
		// Stores that another component mediates or observes (frame
		// stores via the LSE inbox, main-memory WRITEs) must never be
		// burstable; the only burstable stores are the direct
		// local-store writes, whose class carries the horizon
		// precondition.
		if info.Store && cls != BurstNone && cls != BurstLSWrite {
			t.Errorf("%s: store op in burst class %d", info.Name, cls)
		}
		if Burstable(op) != (cls == BurstReg) {
			t.Errorf("%s: Burstable=%v disagrees with class %d", info.Name, Burstable(op), cls)
		}
	}
	if ClassOf(Op(250)) != BurstNone {
		t.Error("undefined opcode must be BurstNone")
	}
}

// EvalALU is the one evaluator behind the SPU's reference path, its burst
// kernel and the functional oracle, so a differential between them cannot
// see an opcode it gets wrong or lacks: its values are pinned here, and
// every register-writing compute opcode must have a row with a non-zero
// result (a missing case returns 0).
func TestEvalALUTotal(t *testing.T) {
	rows := []struct {
		op        Op
		a, b, imm int64
		want      int64
	}{
		{MOVI, -37, 5, 3, 3},
		{MOVI, -37, 5, -3, -3},
		{MOVHI, -37, 5, 3, 3 << 32},
		{MOVHI, -37, 5, -1, -1 << 32},
		{MOV, -37, 5, 3, -37},
		{ADD, -37, 5, 3, -32},
		{ADDI, -37, 5, 3, -34},
		{SUB, -37, 5, 3, -42},
		{SUBI, -37, 5, 3, -40},
		{MUL, -37, 5, 3, -185},
		{MULI, -37, 5, 3, -111},
		{DIV, -37, 5, 3, -7},
		{DIV, -37, 0, 3, 0},
		{REM, -37, 5, 3, -2},
		{REM, -37, 0, 3, 0},
		{AND, -37, 5, 3, 1},
		{ANDI, -37, 5, 3, 3},
		{OR, -37, 5, 3, -33},
		{ORI, -37, 5, 3, -37},
		{XOR, -37, 5, 3, -34},
		{XORI, -37, 5, 3, -40},
		{SHL, -37, 5, 3, -1184},
		{SHL, 1, 64 + 5, 3, 32},
		{SHLI, -37, 5, 3, -296},
		{SHR, -37, 5, 3, 1<<59 - 2},
		{SHRI, -37, 5, 3, 1<<61 - 5},
		{SRA, -37, 5, 3, -2},
		{SRAI, -37, 5, 3, -5},
		{CMPEQ, 9, 9, 3, 1},
		{CMPEQ, -37, 5, 3, 0},
		{CMPLT, -37, 5, 3, 1},
		{CMPLT, 5, -37, 3, 0},
		{CMPLTU, 5, -37, 3, 1},
		{CMPLTU, -37, 5, 3, 0},
	}
	nonZero := map[Op]bool{}
	for _, r := range rows {
		if got := EvalALU(r.op, r.a, r.b, r.imm); got != r.want {
			t.Errorf("EvalALU(%s, %d, %d, %d) = %d, want %d", r.op, r.a, r.b, r.imm, got, r.want)
		}
		if r.want != 0 {
			nonZero[r.op] = true
		}
	}
	for op := Op(0); int(op) < OpCount; op++ {
		switch MustInfo(op).Unit {
		case UnitFX, UnitSH, UnitMUL, UnitDIV:
			if op != NOP && !nonZero[op] {
				t.Errorf("%s: no row with a non-zero result", op)
			}
		}
	}
}

// usesFields restates, format by format, which operand fields an
// instruction uses — the reference TestValidateFieldsOfEveryOpcode holds
// Validate's table against.
func usesFields(f Format) (rd, ra, rb, imm bool) {
	switch f {
	case FmtRd:
		return true, false, false, false
	case FmtRa:
		return false, true, false, false
	case FmtImm:
		return false, false, false, true
	case FmtRdImm:
		return true, false, false, true
	case FmtRdRa:
		return true, true, false, false
	case FmtRdRaRb:
		return true, true, true, false
	case FmtRdRaImm:
		return true, true, false, true
	case FmtRaRbImm:
		return false, true, true, true
	case FmtRdRaRbIm:
		return true, true, true, true
	}
	return false, false, false, false
}

// TestValidateFieldsOfEveryOpcode: for every defined opcode, a register
// field the format uses must be in range, and a field it does not use
// must be zero.
func TestValidateFieldsOfEveryOpcode(t *testing.T) {
	for op := Op(0); int(op) < OpCount; op++ {
		info, ok := Lookup(op)
		if !ok {
			continue
		}
		rd, ra, rb, imm := usesFields(info.Fmt)
		set := func(used bool, v uint8) uint8 {
			if used {
				return v
			}
			return 0
		}
		good := Instruction{Op: op, Rd: set(rd, NumRegs-1), Ra: set(ra, NumRegs-1), Rb: set(rb, NumRegs-1)}
		if imm {
			good.Imm = 3
		}
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", good, err)
		}
		for _, f := range []struct {
			name string
			used bool
			reg  *uint8
		}{{"rd", rd, &good.Rd}, {"ra", ra, &good.Ra}, {"rb", rb, &good.Rb}} {
			bad, want := uint8(1), ErrNonZero
			if f.used {
				bad, want = NumRegs, ErrBadReg
			}
			old := *f.reg
			*f.reg = bad
			if err := good.Validate(); !errors.Is(err, want) {
				t.Errorf("%s with %s=%d: Validate = %v, want %v", info.Name, f.name, bad, err, want)
			}
			*f.reg = old
		}
		if !imm {
			bad := good
			bad.Imm = 1
			if err := bad.Validate(); !errors.Is(err, ErrNonZero) {
				t.Errorf("%s with imm=1: Validate = %v, want %v", info.Name, err, ErrNonZero)
			}
		}
	}
	if err := (Instruction{Op: Op(OpCount)}).Validate(); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("first undefined opcode: Validate = %v, want %v", err, ErrUnknownOp)
	}
}
