package program

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Reg names an SPU register in builder code.
type Reg uint8

// Registers with ABI meaning (see isa package).
const (
	R0     Reg = isa.RegZero // hardwired zero
	RegFP  Reg = isa.RegFP   // current thread's frame pointer
	RegPFB Reg = isa.RegPFB  // prefetch buffer base (set when a PF block runs)
	RegSPE Reg = isa.RegSPE  // executing SPE index
	RegTag Reg = isa.RegTag  // thread's DMA tag group
)

// R returns the i'th general register and panics when out of range or
// when it would collide with the transformer-reserved range; workload
// code uses this to allocate registers explicitly.
func R(i int) Reg {
	if i < 0 || i >= isa.FirstReservedReg {
		panic(fmt.Sprintf("program: register r%d outside user range [0,%d)", i, isa.FirstReservedReg))
	}
	return Reg(i)
}

// RegionRef is an opaque handle to a declared region of a template.
type RegionRef struct {
	tmpl  *TB
	index int
}

// Builder accumulates a Program. Errors are collected and reported by
// Build, so workload construction code can stay assignment-free.
type Builder struct {
	prog *Program
	tbs  []*TB
	errs []error
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name, ExpectTokens: 1}}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Template adds a thread template and returns its builder. Template IDs
// are assigned in creation order.
func (b *Builder) Template(name string) *TB {
	t := &TB{
		b:    b,
		tmpl: &Template{Name: name, ID: len(b.tbs)},
	}
	for k := BlockKind(0); k < NumBlocks; k++ {
		t.asms[k] = &Asm{tb: t, kind: k}
	}
	b.tbs = append(b.tbs, t)
	return t
}

// Entry declares the root thread and the arguments the PPE stores into
// its frame (SC = len(args); use at least one argument so the root thread
// has a well-defined start event).
func (b *Builder) Entry(t *TB, args ...int64) {
	b.prog.Entry = t.tmpl.ID
	b.prog.EntryArgs = append([]int64(nil), args...)
}

// Segment places data at addr in the initial main-memory image.
func (b *Builder) Segment(addr int64, data []byte) {
	b.prog.Segments = append(b.prog.Segments, Segment{Addr: addr, Data: append([]byte(nil), data...)})
}

// ExpectTokens sets how many mailbox stores complete the activity.
func (b *Builder) ExpectTokens(n int) { b.prog.ExpectTokens = n }

// Check installs the functional verification hook.
func (b *Builder) Check(fn func(mem MemReader, tokens []int64) error) { b.prog.Check = fn }

// Build finalises all templates (resolving labels), validates the
// program and returns it.
func (b *Builder) Build() (*Program, error) {
	for _, t := range b.tbs {
		for k := BlockKind(0); k < NumBlocks; k++ {
			if err := t.asms[k].finalize(); err != nil {
				b.errs = append(b.errs, err)
			}
			t.tmpl.Blocks[k] = t.asms[k].ins
		}
		b.prog.Templates = append(b.prog.Templates, t.tmpl)
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// TB builds one template.
type TB struct {
	b    *Builder
	tmpl *Template
	asms [NumBlocks]*Asm
}

// ID returns the template's id (usable in FALLOC immediates).
func (t *TB) ID() int { return t.tmpl.ID }

// Name returns the template's name.
func (t *TB) Name() string { return t.tmpl.Name }

// Region declares a global-data region for the prefetch transformer,
// fetched with a single DMA command.
func (t *TB) Region(name string, base AddrExpr, size SizeExpr, maxBytes int) RegionRef {
	t.tmpl.Regions = append(t.tmpl.Regions, Region{Name: name, Base: base, Size: size, MaxBytes: maxBytes})
	return RegionRef{tmpl: t, index: len(t.tmpl.Regions) - 1}
}

// RegionChunked declares a region fetched with one DMA command per
// chunkBytes (e.g. per matrix row).
func (t *TB) RegionChunked(name string, base AddrExpr, size SizeExpr, maxBytes, chunkBytes int) RegionRef {
	t.tmpl.Regions = append(t.tmpl.Regions, Region{
		Name: name, Base: base, Size: size, MaxBytes: maxBytes, ChunkBytes: chunkBytes,
	})
	return RegionRef{tmpl: t, index: len(t.tmpl.Regions) - 1}
}

// Block returns the assembler for code block k.
func (t *TB) Block(k BlockKind) *Asm { return t.asms[k] }

// PL, EX and PS are shorthands for Block.
func (t *TB) PL() *Asm { return t.asms[PL] }
func (t *TB) EX() *Asm { return t.asms[EX] }
func (t *TB) PS() *Asm { return t.asms[PS] }

type fixup struct {
	index int
	label string
}

// Asm emits instructions into one code block and resolves labels.
type Asm struct {
	tb     *TB
	kind   BlockKind
	ins    []isa.Instruction
	labels map[string]int
	fixups []fixup
}

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.ins) }

// Emit appends a raw instruction.
func (a *Asm) Emit(ins isa.Instruction) *Asm {
	a.ins = append(a.ins, ins)
	return a
}

// Label defines a branch target at the current position.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.tb.b.errf("program: duplicate label %q in %s/%s", name, a.tb.tmpl.Name, a.kind)
		return a
	}
	if a.labels == nil {
		a.labels = map[string]int{} // most blocks define none
	}
	a.labels[name] = len(a.ins)
	return a
}

func (a *Asm) branch(op isa.Op, ra, rb Reg, label string) *Asm {
	a.fixups = append(a.fixups, fixup{index: len(a.ins), label: label})
	return a.Emit(isa.Instruction{Op: op, Ra: uint8(ra), Rb: uint8(rb)})
}

func (a *Asm) finalize() error {
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return fmt.Errorf("program: undefined label %q in %s/%s", f.label, a.tb.tmpl.Name, a.kind)
		}
		a.ins[f.index].Imm = int32(target)
	}
	a.fixups = nil
	return nil
}

// ---- constants and moves ----

// Movi loads a 32-bit immediate (sign-extended).
func (a *Asm) Movi(rd Reg, imm int32) *Asm {
	return a.Emit(isa.Instruction{Op: isa.MOVI, Rd: uint8(rd), Imm: imm})
}

// Li loads a 64-bit constant, using one instruction when it fits in an
// int32 and a MOVHI/ORI pair otherwise. The low 32 bits must not have the
// sign bit set in the pair form (ORI sign-extends); builder reports an
// error for such constants, which do not occur in practice (addresses are
// below 2^31).
func (a *Asm) Li(rd Reg, v int64) *Asm {
	if int64(int32(v)) == v {
		return a.Movi(rd, int32(v))
	}
	lo := int32(uint32(v))
	if lo < 0 {
		a.tb.b.errf("program: Li constant %#x needs sign-bit-set low half", v)
		return a
	}
	a.Emit(isa.Instruction{Op: isa.MOVHI, Rd: uint8(rd), Imm: int32(v >> 32)})
	return a.Emit(isa.Instruction{Op: isa.ORI, Rd: uint8(rd), Ra: uint8(rd), Imm: lo})
}

// Mov copies ra to rd.
func (a *Asm) Mov(rd, ra Reg) *Asm {
	return a.Emit(isa.Instruction{Op: isa.MOV, Rd: uint8(rd), Ra: uint8(ra)})
}

// ---- three-operand and immediate arithmetic ----

func (a *Asm) op3(op isa.Op, rd, ra, rb Reg) *Asm {
	return a.Emit(isa.Instruction{Op: op, Rd: uint8(rd), Ra: uint8(ra), Rb: uint8(rb)})
}

func (a *Asm) opImm(op isa.Op, rd, ra Reg, imm int32) *Asm {
	return a.Emit(isa.Instruction{Op: op, Rd: uint8(rd), Ra: uint8(ra), Imm: imm})
}

func (a *Asm) Add(rd, ra, rb Reg) *Asm         { return a.op3(isa.ADD, rd, ra, rb) }
func (a *Asm) Addi(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.ADDI, rd, ra, imm) }
func (a *Asm) Sub(rd, ra, rb Reg) *Asm         { return a.op3(isa.SUB, rd, ra, rb) }
func (a *Asm) Subi(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.SUBI, rd, ra, imm) }
func (a *Asm) Mul(rd, ra, rb Reg) *Asm         { return a.op3(isa.MUL, rd, ra, rb) }
func (a *Asm) Muli(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.MULI, rd, ra, imm) }
func (a *Asm) Div(rd, ra, rb Reg) *Asm         { return a.op3(isa.DIV, rd, ra, rb) }
func (a *Asm) Rem(rd, ra, rb Reg) *Asm         { return a.op3(isa.REM, rd, ra, rb) }
func (a *Asm) And(rd, ra, rb Reg) *Asm         { return a.op3(isa.AND, rd, ra, rb) }
func (a *Asm) Andi(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.ANDI, rd, ra, imm) }
func (a *Asm) Or(rd, ra, rb Reg) *Asm          { return a.op3(isa.OR, rd, ra, rb) }
func (a *Asm) Ori(rd, ra Reg, imm int32) *Asm  { return a.opImm(isa.ORI, rd, ra, imm) }
func (a *Asm) Xor(rd, ra, rb Reg) *Asm         { return a.op3(isa.XOR, rd, ra, rb) }
func (a *Asm) Xori(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.XORI, rd, ra, imm) }
func (a *Asm) Shl(rd, ra, rb Reg) *Asm         { return a.op3(isa.SHL, rd, ra, rb) }
func (a *Asm) Shli(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.SHLI, rd, ra, imm) }
func (a *Asm) Shr(rd, ra, rb Reg) *Asm         { return a.op3(isa.SHR, rd, ra, rb) }
func (a *Asm) Shri(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.SHRI, rd, ra, imm) }
func (a *Asm) Sra(rd, ra, rb Reg) *Asm         { return a.op3(isa.SRA, rd, ra, rb) }
func (a *Asm) Srai(rd, ra Reg, imm int32) *Asm { return a.opImm(isa.SRAI, rd, ra, imm) }
func (a *Asm) Cmpeq(rd, ra, rb Reg) *Asm       { return a.op3(isa.CMPEQ, rd, ra, rb) }
func (a *Asm) Cmplt(rd, ra, rb Reg) *Asm       { return a.op3(isa.CMPLT, rd, ra, rb) }
func (a *Asm) Cmpltu(rd, ra, rb Reg) *Asm      { return a.op3(isa.CMPLTU, rd, ra, rb) }
func (a *Asm) Nop() *Asm                       { return a.Emit(isa.Instruction{Op: isa.NOP}) }

// ---- control flow ----

// Jmp jumps unconditionally to label.
func (a *Asm) Jmp(label string) *Asm {
	a.fixups = append(a.fixups, fixup{index: len(a.ins), label: label})
	return a.Emit(isa.Instruction{Op: isa.JMP})
}

func (a *Asm) Beq(ra, rb Reg, label string) *Asm  { return a.branch(isa.BEQ, ra, rb, label) }
func (a *Asm) Bne(ra, rb Reg, label string) *Asm  { return a.branch(isa.BNE, ra, rb, label) }
func (a *Asm) Blt(ra, rb Reg, label string) *Asm  { return a.branch(isa.BLT, ra, rb, label) }
func (a *Asm) Bge(ra, rb Reg, label string) *Asm  { return a.branch(isa.BGE, ra, rb, label) }
func (a *Asm) Bltu(ra, rb Reg, label string) *Asm { return a.branch(isa.BLTU, ra, rb, label) }
func (a *Asm) Bgeu(ra, rb Reg, label string) *Asm { return a.branch(isa.BGEU, ra, rb, label) }

// ---- frame memory ----

// Load reads slot of the current thread's frame.
func (a *Asm) Load(rd Reg, slot int) *Asm {
	return a.Emit(isa.Instruction{Op: isa.LOAD, Rd: uint8(rd), Imm: int32(slot)})
}

// Loadx reads the slot whose index is in ra.
func (a *Asm) Loadx(rd, ra Reg) *Asm {
	return a.Emit(isa.Instruction{Op: isa.LOADX, Rd: uint8(rd), Ra: uint8(ra)})
}

// Store writes rv into slot of the frame pointed to by rfp (decrementing
// the target thread's SC).
func (a *Asm) Store(rv, rfp Reg, slot int) *Asm {
	return a.Emit(isa.Instruction{Op: isa.STORE, Rd: uint8(rv), Ra: uint8(rfp), Imm: int32(slot)})
}

// Storex writes rv into the slot indexed by rslot of frame rfp.
func (a *Asm) Storex(rv, rfp, rslot Reg) *Asm {
	return a.op3(isa.STOREX, rv, rfp, rslot)
}

// ---- main memory ----

// Read performs a blocking 4-byte main-memory read from ra+off.
func (a *Asm) Read(rd, ra Reg, off int32) *Asm {
	return a.opImm(isa.READ, rd, ra, off)
}

// Read8 performs a blocking 8-byte main-memory read.
func (a *Asm) Read8(rd, ra Reg, off int32) *Asm {
	return a.opImm(isa.READ8, rd, ra, off)
}

// ReadRegion emits a blocking read tagged as belonging to region, so the
// prefetch transformer may decouple it.
func (a *Asm) ReadRegion(region RegionRef, rd, ra Reg, off int32) *Asm {
	a.tagAccess(region)
	return a.Read(rd, ra, off)
}

// Read8Region is ReadRegion for 8-byte accesses.
func (a *Asm) Read8Region(region RegionRef, rd, ra Reg, off int32) *Asm {
	a.tagAccess(region)
	return a.Read8(rd, ra, off)
}

func (a *Asm) tagAccess(region RegionRef) {
	if region.tmpl != a.tb {
		a.tb.b.errf("program: region of template %q used in template %q",
			region.tmpl.tmpl.Name, a.tb.tmpl.Name)
		return
	}
	a.tb.tmpl.Accesses = append(a.tb.tmpl.Accesses, Access{
		Block: a.kind, Index: len(a.ins), Region: region.index,
	})
}

// Write posts a 4-byte main-memory write of rv to ra+off.
func (a *Asm) Write(rv, ra Reg, off int32) *Asm {
	return a.opImm(isa.WRITE, rv, ra, off)
}

// WriteRegion posts a write tagged as falling into region, so the
// write-back transformation may redirect it into a local staging buffer
// flushed by a PS-block DMA PUT (ablation A7).
func (a *Asm) WriteRegion(region RegionRef, rv, ra Reg, off int32) *Asm {
	a.tagAccess(region)
	return a.Write(rv, ra, off)
}

// Write8Region is WriteRegion for 8-byte writes.
func (a *Asm) Write8Region(region RegionRef, rv, ra Reg, off int32) *Asm {
	a.tagAccess(region)
	return a.Write8(rv, ra, off)
}

// Write8 posts an 8-byte main-memory write.
func (a *Asm) Write8(rv, ra Reg, off int32) *Asm {
	return a.opImm(isa.WRITE8, rv, ra, off)
}

// ---- local store ----

func (a *Asm) Lsrd(rd, ra Reg, off int32) *Asm  { return a.opImm(isa.LSRD, rd, ra, off) }
func (a *Asm) Lsrd8(rd, ra Reg, off int32) *Asm { return a.opImm(isa.LSRD8, rd, ra, off) }
func (a *Asm) Lswr(rv, ra Reg, off int32) *Asm  { return a.opImm(isa.LSWR, rv, ra, off) }
func (a *Asm) Lswr8(rv, ra Reg, off int32) *Asm { return a.opImm(isa.LSWR8, rv, ra, off) }

// ---- DTA thread management ----

// Falloc allocates a frame for a thread of template t with the given SC.
func (a *Asm) Falloc(rd Reg, t *TB, sc int) *Asm {
	imm, err := isa.PackFalloc(t.tmpl.ID, sc)
	if err != nil {
		a.tb.b.errs = append(a.tb.b.errs, err)
		return a
	}
	return a.Emit(isa.Instruction{Op: isa.FALLOC, Rd: uint8(rd), Imm: imm})
}

// Fallocx allocates a frame with template id in ra and SC in rb.
func (a *Asm) Fallocx(rd, ra, rb Reg) *Asm { return a.op3(isa.FALLOCX, rd, ra, rb) }

// Ffree releases the current thread's frame.
func (a *Asm) Ffree() *Asm { return a.Emit(isa.Instruction{Op: isa.FFREE}) }

// Stop ends the thread.
func (a *Asm) Stop() *Asm { return a.Emit(isa.Instruction{Op: isa.STOP}) }

// StoreMailbox stores rv as completion token slot of the PPE mailbox,
// clobbering scratch with the mailbox FP.
func (a *Asm) StoreMailbox(rv, scratch Reg, slot int) *Asm {
	a.Movi(scratch, -1) // MailboxFP
	return a.Store(rv, scratch, slot)
}

// ---- MFC / DMA ----

func (a *Asm) Mfclsa(ra Reg) *Asm { return a.Emit(isa.Instruction{Op: isa.MFCLSA, Ra: uint8(ra)}) }
func (a *Asm) Mfcea(ra Reg) *Asm  { return a.Emit(isa.Instruction{Op: isa.MFCEA, Ra: uint8(ra)}) }
func (a *Asm) Mfcsz(ra Reg) *Asm  { return a.Emit(isa.Instruction{Op: isa.MFCSZ, Ra: uint8(ra)}) }
func (a *Asm) Mfctag(ra Reg) *Asm { return a.Emit(isa.Instruction{Op: isa.MFCTAG, Ra: uint8(ra)}) }
func (a *Asm) Mfcget() *Asm       { return a.Emit(isa.Instruction{Op: isa.MFCGET}) }
func (a *Asm) Mfcput() *Asm       { return a.Emit(isa.Instruction{Op: isa.MFCPUT}) }
func (a *Asm) Mfcstat(rd Reg) *Asm {
	return a.Emit(isa.Instruction{Op: isa.MFCSTAT, Rd: uint8(rd)})
}
