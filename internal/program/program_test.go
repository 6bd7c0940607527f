package program

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

// buildMinimal returns a two-template program: a root that forks one
// child and a child that stores a token to the mailbox.
func buildMinimal(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("mini")
	child := b.Template("child")
	child.PL().Load(R(1), 0)
	child.PS().
		StoreMailbox(R(1), R(2), 0).
		Ffree().
		Stop()

	root := b.Template("root")
	root.PL().Load(R(1), 0)
	root.PS().
		Falloc(R(3), child, 1).
		Store(R(1), R(3), 0).
		Ffree().
		Stop()

	b.Entry(root, 42)
	b.ExpectTokens(1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderMinimalProgram(t *testing.T) {
	p := buildMinimal(t)
	if p.Entry != 1 {
		t.Fatalf("entry = %d, want 1 (root)", p.Entry)
	}
	if len(p.EntryArgs) != 1 || p.EntryArgs[0] != 42 {
		t.Fatalf("entry args = %v", p.EntryArgs)
	}
	if got := p.CodeLen(); got != 10 {
		t.Fatalf("CodeLen = %d, want 10", got)
	}
	// falloc immediate must reference the child template with SC 1.
	ps := p.Templates[1].Blocks[PS]
	tmpl, sc := isa.UnpackFalloc(ps[0].Imm)
	if tmpl != 0 || sc != 1 {
		t.Fatalf("falloc packs (%d,%d), want (0,1)", tmpl, sc)
	}
}

func TestLabelResolution(t *testing.T) {
	b := NewBuilder("loops")
	tt := b.Template("t")
	ex := tt.EX()
	ex.Movi(R(1), 0)
	ex.Movi(R(2), 10)
	ex.Label("top")
	ex.Addi(R(1), R(1), 1)
	ex.Blt(R(1), R(2), "top")
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ins := p.Templates[0].Blocks[EX]
	if ins[3].Op != isa.BLT || ins[3].Imm != 2 {
		t.Fatalf("branch = %v, want blt to index 2", ins[3])
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	tt := b.Template("t")
	tt.EX().Jmp("nowhere")
	tt.PS().Stop()
	b.Entry(tt, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("Build err = %v, want undefined label", err)
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	tt := b.Template("t")
	tt.EX().Label("x").Label("x")
	tt.PS().Stop()
	b.Entry(tt, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("Build err = %v, want duplicate label", err)
	}
}

func TestBlockDisciplineViolations(t *testing.T) {
	cases := []struct {
		name  string
		build func(tt *TB)
	}{
		{"load in EX", func(tt *TB) { tt.EX().Load(R(1), 0) }},
		{"store in EX", func(tt *TB) { tt.EX().Store(R(1), R(2), 0) }},
		{"read in PL", func(tt *TB) { tt.PL().Read(R(1), R(2), 0) }},
		{"read in PS", func(tt *TB) { tt.Block(PS).Read(R(1), R(2), 0) }},
		{"mfc outside PF", func(tt *TB) { tt.EX().Mfcget() }},
		{"stop in EX", func(tt *TB) { tt.EX().Emit(isa.Instruction{Op: isa.STOP}) }},
		{"frame store in PF", func(tt *TB) { tt.Block(PF).Store(R(1), R(2), 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("bad")
			tt := b.Template("t")
			c.build(tt)
			tt.PS().Ffree().Stop()
			b.Entry(tt, 1)
			if _, err := b.Build(); !errors.Is(err, ErrBlockDiscipline) {
				t.Fatalf("Build err = %v, want ErrBlockDiscipline", err)
			}
		})
	}
}

func TestPSMustEndWithStop(t *testing.T) {
	b := NewBuilder("nostop")
	tt := b.Template("t")
	tt.PS().Ffree() // no stop
	b.Entry(tt, 1)
	if _, err := b.Build(); !errors.Is(err, ErrNoStop) {
		t.Fatalf("Build err = %v, want ErrNoStop", err)
	}
}

func TestRegionTaggingAndValidation(t *testing.T) {
	b := NewBuilder("regions")
	tt := b.Template("t")
	rg := tt.Region("table", AddrExpr{Terms: []AddrTerm{{Slot: 0, Scale: 1}}}, SizeConst(1024), 1024)
	ex := tt.EX()
	ex.Movi(R(2), 0x1000)
	ex.ReadRegion(rg, R(1), R(2), 8)
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tm := p.Templates[0]
	if len(tm.Accesses) != 1 {
		t.Fatalf("accesses = %v", tm.Accesses)
	}
	a := tm.Accesses[0]
	if a.Block != EX || a.Index != 1 || a.Region != 0 {
		t.Fatalf("access = %+v", a)
	}
}

func TestRegionFromOtherTemplateRejected(t *testing.T) {
	b := NewBuilder("cross")
	t1 := b.Template("one")
	rg := t1.Region("r", AddrExpr{Const: 0x1000}, SizeConst(64), 64)
	t1.PS().Ffree().Stop()
	t2 := b.Template("two")
	t2.EX().Movi(R(2), 0x1000)
	t2.EX().ReadRegion(rg, R(1), R(2), 0)
	t2.PS().Ffree().Stop()
	b.Entry(t1, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "region of template") {
		t.Fatalf("Build err = %v, want cross-template region error", err)
	}
}

func TestRegionSizeBoundsChecked(t *testing.T) {
	b := NewBuilder("big")
	tt := b.Template("t")
	tt.Region("r", AddrExpr{Const: 0x1000}, SizeConst(2048), 1024) // size > max
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("Build err = %v, want ErrBadRegion", err)
	}
}

func TestBranchTargetOutOfBlock(t *testing.T) {
	b := NewBuilder("bt")
	tt := b.Template("t")
	tt.EX().Emit(isa.Instruction{Op: isa.JMP, Imm: 99})
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBranchTarget) {
		t.Fatalf("Build err = %v, want ErrBranchTarget", err)
	}
}

func TestSegmentOverlapDetected(t *testing.T) {
	b := NewBuilder("segs")
	tt := b.Template("t")
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	b.Segment(0x1000, make([]byte, 64))
	b.Segment(0x1020, make([]byte, 16)) // overlaps
	if _, err := b.Build(); !errors.Is(err, ErrSegOverlap) {
		t.Fatalf("Build err = %v, want ErrSegOverlap", err)
	}
}

func TestLiExpandsLargeConstants(t *testing.T) {
	b := NewBuilder("li")
	tt := b.Template("t")
	ex := tt.EX()
	ex.Li(R(1), 100)           // fits: one movi
	ex.Li(R(2), 0x1_0000_0000) // needs pair
	tt.PS().Ffree().Stop()
	b.Entry(tt, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ins := p.Templates[0].Blocks[EX]
	if len(ins) != 3 {
		t.Fatalf("len = %d, want 3 (movi + movhi/ori)", len(ins))
	}
	if ins[0].Op != isa.MOVI || ins[1].Op != isa.MOVHI || ins[2].Op != isa.ORI {
		t.Fatalf("ops = %v %v %v", ins[0].Op, ins[1].Op, ins[2].Op)
	}
}

func TestRPanicsOutsideUserRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R(120) did not panic")
		}
	}()
	R(120)
}

// TestSealMarksByAddress: Seal marks the program and its templates at
// their own addresses. A copy of a sealed program is unsealed, and
// sealing a copy that shares the original's templates but replaces one
// with an edited copy of it validates the copy — what prefetch.Transform
// relies on.
func TestSealMarksByAddress(t *testing.T) {
	p := buildMinimal(t)
	if !p.Sealed() {
		t.Fatal("Build returned an unsealed program")
	}
	q := *p
	if q.Sealed() {
		t.Fatal("a copy of a sealed program is sealed")
	}
	q.Templates = append([]*Template(nil), p.Templates...)
	edited := *p.Templates[0]
	edited.Blocks[EX] = []isa.Instruction{{Op: isa.STOP}} // not allowed in EX
	q.Templates[0] = &edited
	if err := Seal(&q); !errors.Is(err, ErrBlockDiscipline) {
		t.Fatalf("Seal of a program with an edited template copy = %v, want ErrBlockDiscipline", err)
	}
	if q.Sealed() {
		t.Fatal("a program that failed Seal is sealed")
	}

	q.Templates[0] = p.Templates[0]
	if err := Seal(&q); err != nil || !q.Sealed() {
		t.Fatalf("Seal of a copy sharing every template = %v", err)
	}
}

func TestValidateChecksTemplateIDs(t *testing.T) {
	p := buildMinimal(t)
	p.Templates[0].ID = 5
	if err := Seal(p); !errors.Is(err, ErrBadID) {
		t.Fatalf("Seal = %v, want ErrBadID", err)
	}
}

func TestFallocSCWithinFrame(t *testing.T) {
	b := NewBuilder("sc")
	tt := b.Template("t")
	tt.PS().Falloc(R(1), tt, MaxFrameSlots+1).Ffree().Stop()
	b.Entry(tt, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Build err = %v, want ErrBadSlot", err)
	}
}

// wellFormed returns an instruction of op that isa.Instruction.Validate
// accepts and whose immediate is a legal branch target, frame slot and
// FALLOC packing at once: every register the format uses is r1, the
// immediate 0.
func wellFormed(t *testing.T, op isa.Op) isa.Instruction {
	t.Helper()
	ins := isa.Instruction{Op: op}
	switch isa.MustInfo(op).Fmt {
	case isa.FmtRd, isa.FmtRdImm:
		ins.Rd = 1
	case isa.FmtRa:
		ins.Ra = 1
	case isa.FmtRdRa, isa.FmtRdRaImm:
		ins.Rd, ins.Ra = 1, 1
	case isa.FmtRaRbImm:
		ins.Ra, ins.Rb = 1, 1
	case isa.FmtRdRaRb, isa.FmtRdRaRbIm:
		ins.Rd, ins.Ra, ins.Rb = 1, 1, 1
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("%s: %v", ins, err)
	}
	return ins
}

// TestBlockDisciplineMatchesSwitch holds Validate and the table it reads
// against legalIn, the statement of the block discipline, for every
// defined opcode in every kind of block.
func TestBlockDisciplineMatchesSwitch(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.OpCount; op++ {
		if _, ok := isa.Lookup(op); !ok {
			continue
		}
		ins := wellFormed(t, op)
		for k := BlockKind(0); k < NumBlocks; k++ {
			want := legalIn(op, k)
			if legal[op][k] != want {
				t.Errorf("legal[%s][%s] = %v, the switch says %v", op, k, legal[op][k], want)
			}
			tmpl := &Template{Name: "t"}
			tmpl.Blocks[PS] = []isa.Instruction{{Op: isa.STOP}}
			tmpl.Blocks[k] = append([]isa.Instruction{ins}, tmpl.Blocks[k]...)
			err := tmpl.Validate([]*Template{tmpl})
			if want && err != nil {
				t.Errorf("%s in a %s block: Validate = %v, the switch allows it", op, k, err)
			}
			if !want && !errors.Is(err, ErrBlockDiscipline) {
				t.Errorf("%s in a %s block: Validate = %v, want ErrBlockDiscipline", op, k, err)
			}
		}
	}
}

// TestValidateRejectsUndefinedOpcode: an opcode past the defined range
// is reported as such, in any block, before the legality table (which
// has no row for it) is consulted.
func TestValidateRejectsUndefinedOpcode(t *testing.T) {
	for _, op := range []isa.Op{isa.Op(isa.OpCount), 255} {
		for k := BlockKind(0); k < NumBlocks; k++ {
			p := buildMinimal(t)
			tmpl := *p.Templates[0] // a copy: Seal trusts the sealed original
			tmpl.Blocks[k] = append([]isa.Instruction{{Op: op}}, tmpl.Blocks[k]...)
			p.Templates[0] = &tmpl
			if err := Seal(p); !errors.Is(err, isa.ErrUnknownOp) {
				t.Errorf("opcode %d in a %s block: Seal = %v, want isa.ErrUnknownOp", op, k, err)
			}
		}
	}
}
