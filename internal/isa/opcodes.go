// Package isa defines the instruction set executed by the CellDTA SPU
// model: a small in-order RISC ISA extended with the DTA thread-management
// instructions of the paper (Table 1: FALLOC, FFREE, STOP, LOAD, STORE),
// blocking main-memory accesses (READ/WRITE, the accesses the prefetching
// mechanism decouples), direct local-store accesses (the form rewritten
// READs take), and the MFC/DMA channel instructions that program a
// transfer (Table 3: LS address, MEM address, size, tag).
package isa

import "fmt"

// Op is an opcode.
type Op uint8

// Opcode space. The zero value is NOP so that zeroed instruction memory
// is inert.
const (
	NOP Op = iota

	// Constants and moves.
	MOVI  // rd = signext(imm)
	MOVHI // rd = imm << 32
	MOV   // rd = ra

	// Integer arithmetic.
	ADD  // rd = ra + rb
	ADDI // rd = ra + imm
	SUB  // rd = ra - rb
	SUBI // rd = ra - imm
	MUL  // rd = ra * rb
	MULI // rd = ra * imm
	DIV  // rd = ra / rb (rb==0 -> 0, mirrors "no trap" embedded cores)
	REM  // rd = ra % rb (rb==0 -> 0)

	// Bitwise and shifts.
	AND  // rd = ra & rb
	ANDI // rd = ra & imm
	OR   // rd = ra | rb
	ORI  // rd = ra | imm
	XOR  // rd = ra ^ rb
	XORI // rd = ra ^ imm
	SHL  // rd = ra << (rb & 63)
	SHLI // rd = ra << (imm & 63)
	SHR  // rd = logical ra >> (rb & 63)
	SHRI // rd = logical ra >> (imm & 63)
	SRA  // rd = arithmetic ra >> (rb & 63)
	SRAI // rd = arithmetic ra >> (imm & 63)

	// Comparisons (predicate in register).
	CMPEQ  // rd = (ra == rb) ? 1 : 0
	CMPLT  // rd = (ra < rb) signed ? 1 : 0
	CMPLTU // rd = (ra < rb) unsigned ? 1 : 0

	// Control flow. Branch targets are absolute instruction indices
	// within the current code block (resolved by the assembler/builder).
	JMP  // pc = imm
	BEQ  // if ra == rb: pc = imm
	BNE  // if ra != rb: pc = imm
	BLT  // if ra < rb (signed): pc = imm
	BGE  // if ra >= rb (signed): pc = imm
	BLTU // if ra < rb (unsigned): pc = imm
	BGEU // if ra >= rb (unsigned): pc = imm

	// Frame memory (the DTA-specific accesses of paper Table 1).
	LOAD   // rd = frame[imm] of the current thread
	LOADX  // rd = frame[ra] of the current thread
	STORE  // frame-of(ra)[imm] = rd  (decrements target SC)
	STOREX // frame-of(ra)[rb] = rd

	// Main ("global") memory. READ blocks the pipeline until the reply
	// returns; WRITE is posted through a store buffer. These are the
	// accesses the paper's DMA prefetching removes from the EX block.
	READ   // rd = signext(mem32[ra + imm])
	READ8  // rd = mem64[ra + imm]
	WRITE  // mem32[ra + imm] = low32(rd)
	WRITE8 // mem64[ra + imm] = rd

	// Local store direct accesses (prefetched data, scratch).
	LSRD   // rd = signext(ls32[ra + imm])
	LSRD8  // rd = ls64[ra + imm]
	LSWR   // ls32[ra + imm] = low32(rd)
	LSWR8  // ls64[ra + imm] = rd
	LSRDX  // rd = signext(ls32[ra + rb + imm]) (rewritten READ form)
	LSRDX8 // rd = ls64[ra + rb + imm]
	LSWRX  // ls32[ra + rb + imm] = low32(rd)
	LSWRX8 // ls64[ra + rb + imm] = rd

	// DTA thread management (paper Table 1).
	FALLOC  // rd = FP of a new frame; imm packs template:16 | SC:16
	FALLOCX // rd = FP of a new frame; template = ra, SC = rb
	FFREE   // release the current thread's frame
	STOP    // thread complete; notify the LSE

	// MFC (DMA controller) channel interface (paper Table 3).
	MFCLSA  // channel: local store address = ra
	MFCEA   // channel: main (effective) memory address = ra
	MFCSZ   // channel: transfer size in bytes = ra
	MFCTAG  // channel: tag id = ra
	MFCGET  // enqueue command: main memory -> local store
	MFCPUT  // enqueue command: local store -> main memory
	MFCSTAT // rd = number of incomplete commands for the thread's tag

	opCount // sentinel
)

// Format describes which operand fields an opcode uses, for validation,
// assembly and disassembly.
type Format uint8

const (
	FmtNone     Format = iota // op
	FmtRd                     // op rd
	FmtRa                     // op ra
	FmtImm                    // op imm
	FmtRdImm                  // op rd, imm
	FmtRdRa                   // op rd, ra
	FmtRdRaRb                 // op rd, ra, rb
	FmtRdRaImm                // op rd, ra, imm
	FmtRaRbImm                // op ra, rb, imm   (branches)
	FmtRdRaRbIm               // op rd, ra, rb, imm (indexed LS ops)
)

// Unit is the functional unit an opcode executes on; the SPU model maps
// units to result latencies, and the unit implies the issue slot
// (compute vs memory) of the dual-issue pipeline.
type Unit uint8

const (
	UnitNone  Unit = iota
	UnitFX         // simple fixed point (add/logic/moves/compare)
	UnitSH         // shifter
	UnitMUL        // multiplier
	UnitDIV        // iterative divide
	UnitCTL        // control flow
	UnitFRAME      // frame memory access (local store, via LSE-managed frame)
	UnitMEM        // main memory access
	UnitLS         // direct local store access
	UnitDTA        // scheduler operations (FALLOC/FFREE/STOP)
	UnitMFC        // DMA channel operations
)

// MemSlot reports whether the unit issues in the memory slot of the
// dual-issue pipeline (the SPU issues at most one such instruction per
// cycle, alongside at most one compute-slot instruction).
func (u Unit) MemSlot() bool {
	switch u {
	case UnitFRAME, UnitMEM, UnitLS, UnitDTA, UnitMFC:
		return true
	}
	return false
}

// Info is static metadata for one opcode.
type Info struct {
	Name   string
	Fmt    Format
	Unit   Unit
	Branch bool // control transfer (JMP and conditional branches)
	Store  bool // writes memory/frames rather than a register
}

var infos = [opCount]Info{
	NOP:   {Name: "nop", Fmt: FmtNone, Unit: UnitFX},
	MOVI:  {Name: "movi", Fmt: FmtRdImm, Unit: UnitFX},
	MOVHI: {Name: "movhi", Fmt: FmtRdImm, Unit: UnitFX},
	MOV:   {Name: "mov", Fmt: FmtRdRa, Unit: UnitFX},

	ADD:  {Name: "add", Fmt: FmtRdRaRb, Unit: UnitFX},
	ADDI: {Name: "addi", Fmt: FmtRdRaImm, Unit: UnitFX},
	SUB:  {Name: "sub", Fmt: FmtRdRaRb, Unit: UnitFX},
	SUBI: {Name: "subi", Fmt: FmtRdRaImm, Unit: UnitFX},
	MUL:  {Name: "mul", Fmt: FmtRdRaRb, Unit: UnitMUL},
	MULI: {Name: "muli", Fmt: FmtRdRaImm, Unit: UnitMUL},
	DIV:  {Name: "div", Fmt: FmtRdRaRb, Unit: UnitDIV},
	REM:  {Name: "rem", Fmt: FmtRdRaRb, Unit: UnitDIV},

	AND:  {Name: "and", Fmt: FmtRdRaRb, Unit: UnitFX},
	ANDI: {Name: "andi", Fmt: FmtRdRaImm, Unit: UnitFX},
	OR:   {Name: "or", Fmt: FmtRdRaRb, Unit: UnitFX},
	ORI:  {Name: "ori", Fmt: FmtRdRaImm, Unit: UnitFX},
	XOR:  {Name: "xor", Fmt: FmtRdRaRb, Unit: UnitFX},
	XORI: {Name: "xori", Fmt: FmtRdRaImm, Unit: UnitFX},
	SHL:  {Name: "shl", Fmt: FmtRdRaRb, Unit: UnitSH},
	SHLI: {Name: "shli", Fmt: FmtRdRaImm, Unit: UnitSH},
	SHR:  {Name: "shr", Fmt: FmtRdRaRb, Unit: UnitSH},
	SHRI: {Name: "shri", Fmt: FmtRdRaImm, Unit: UnitSH},
	SRA:  {Name: "sra", Fmt: FmtRdRaRb, Unit: UnitSH},
	SRAI: {Name: "srai", Fmt: FmtRdRaImm, Unit: UnitSH},

	CMPEQ:  {Name: "cmpeq", Fmt: FmtRdRaRb, Unit: UnitFX},
	CMPLT:  {Name: "cmplt", Fmt: FmtRdRaRb, Unit: UnitFX},
	CMPLTU: {Name: "cmpltu", Fmt: FmtRdRaRb, Unit: UnitFX},

	JMP:  {Name: "jmp", Fmt: FmtImm, Unit: UnitCTL, Branch: true},
	BEQ:  {Name: "beq", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},
	BNE:  {Name: "bne", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},
	BLT:  {Name: "blt", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},
	BGE:  {Name: "bge", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},
	BLTU: {Name: "bltu", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},
	BGEU: {Name: "bgeu", Fmt: FmtRaRbImm, Unit: UnitCTL, Branch: true},

	LOAD:   {Name: "load", Fmt: FmtRdImm, Unit: UnitFRAME},
	LOADX:  {Name: "loadx", Fmt: FmtRdRa, Unit: UnitFRAME},
	STORE:  {Name: "store", Fmt: FmtRdRaImm, Unit: UnitFRAME, Store: true},
	STOREX: {Name: "storex", Fmt: FmtRdRaRb, Unit: UnitFRAME, Store: true},

	READ:   {Name: "read", Fmt: FmtRdRaImm, Unit: UnitMEM},
	READ8:  {Name: "read8", Fmt: FmtRdRaImm, Unit: UnitMEM},
	WRITE:  {Name: "write", Fmt: FmtRdRaImm, Unit: UnitMEM, Store: true},
	WRITE8: {Name: "write8", Fmt: FmtRdRaImm, Unit: UnitMEM, Store: true},

	LSRD:   {Name: "lsrd", Fmt: FmtRdRaImm, Unit: UnitLS},
	LSRD8:  {Name: "lsrd8", Fmt: FmtRdRaImm, Unit: UnitLS},
	LSWR:   {Name: "lswr", Fmt: FmtRdRaImm, Unit: UnitLS, Store: true},
	LSWR8:  {Name: "lswr8", Fmt: FmtRdRaImm, Unit: UnitLS, Store: true},
	LSRDX:  {Name: "lsrdx", Fmt: FmtRdRaRbIm, Unit: UnitLS},
	LSRDX8: {Name: "lsrdx8", Fmt: FmtRdRaRbIm, Unit: UnitLS},
	LSWRX:  {Name: "lswrx", Fmt: FmtRdRaRbIm, Unit: UnitLS, Store: true},
	LSWRX8: {Name: "lswrx8", Fmt: FmtRdRaRbIm, Unit: UnitLS, Store: true},

	FALLOC:  {Name: "falloc", Fmt: FmtRdImm, Unit: UnitDTA},
	FALLOCX: {Name: "fallocx", Fmt: FmtRdRaRb, Unit: UnitDTA},
	FFREE:   {Name: "ffree", Fmt: FmtNone, Unit: UnitDTA, Store: true},
	STOP:    {Name: "stop", Fmt: FmtNone, Unit: UnitDTA, Store: true},

	MFCLSA:  {Name: "mfclsa", Fmt: FmtRa, Unit: UnitMFC, Store: true},
	MFCEA:   {Name: "mfcea", Fmt: FmtRa, Unit: UnitMFC, Store: true},
	MFCSZ:   {Name: "mfcsz", Fmt: FmtRa, Unit: UnitMFC, Store: true},
	MFCTAG:  {Name: "mfctag", Fmt: FmtRa, Unit: UnitMFC, Store: true},
	MFCGET:  {Name: "mfcget", Fmt: FmtNone, Unit: UnitMFC, Store: true},
	MFCPUT:  {Name: "mfcput", Fmt: FmtNone, Unit: UnitMFC, Store: true},
	MFCSTAT: {Name: "mfcstat", Fmt: FmtRd, Unit: UnitMFC},
}

// OpCount is the number of defined opcodes.
const OpCount = int(opCount)

// defined reports whether op is an opcode of the ISA.
func defined(op Op) bool {
	return int(op) < OpCount && infos[op].Name != ""
}

// Lookup returns the metadata for op, or ok=false for undefined opcodes.
func Lookup(op Op) (Info, bool) {
	if !defined(op) {
		return Info{}, false
	}
	return infos[op], true
}

// MustInfo returns the metadata for op and panics on undefined opcodes;
// use only after validation.
func MustInfo(op Op) Info {
	info, ok := Lookup(op)
	if !ok {
		panic(fmt.Sprintf("isa: undefined opcode %d", op))
	}
	return info
}

// InfoOf returns a pointer to op's metadata without copying the Info
// struct — the per-instruction hot path of the SPU pipeline. The
// opcode space is contiguous, so the array bounds check is the whole
// validity check (out-of-range opcodes panic); use only after
// validation. The returned Info is shared and must not be mutated.
func InfoOf(op Op) *Info {
	return &infos[op]
}

// BurstClass classifies an opcode for the SPU's burst-execution fast
// path — how far ahead of the engine clock the instruction may be
// simulated.
type BurstClass uint8

const (
	// BurstNone instructions must execute on the engine clock: they
	// write memory or machine state another component observes (stores,
	// main-memory traffic, LSE/MFC operations), or read state another
	// component mutates asynchronously (MFCSTAT).
	BurstNone BurstClass = iota
	// BurstReg instructions touch only SPU-local register state: no
	// local store, main memory, frame, LSE, or MFC interaction, and no
	// result observable by any other machine component. They may be
	// simulated arbitrarily far ahead of the engine clock. Control flow
	// qualifies — branch conditions and targets live entirely in the
	// pipeline.
	BurstReg
	// BurstLSRead instructions additionally read the SPE's local store
	// (LSRD*/LOAD*). Their only interactions outside the register file
	// are a functional read of the local store and a booking on the
	// store's dedicated SPU port, which no other component shares — so
	// they may run ahead of the engine clock exactly as far as the
	// engine can prove no other component runs (and therefore nothing
	// can write the local store): the caller's quiescence horizon,
	// sim.Engine.HorizonExcluding.
	BurstLSRead
	// BurstLSWrite instructions write the SPE's local store directly
	// (LSWR*) with no mediation by any other component: no wake is
	// posted and no inbox is filled, only the store's bytes and its
	// dedicated SPU port booking change. They burst under exactly the
	// same horizon argument as BurstLSRead — until the horizon, no
	// other component runs, so nothing (the MFC streaming a PUT, the
	// LSE reading a frame, a network delivery) can *read* the store
	// either, and a write simulated early is indistinguishable from
	// one executed on the engine clock. STORE*/STOREX stay BurstNone:
	// they go through the LSE's inbox (observable component state,
	// possibly routed to a remote frame), not the local store.
	BurstLSWrite
)

// ClassOf returns the burst class of op (BurstNone for undefined
// opcodes).
func ClassOf(op Op) BurstClass {
	if int(op) >= OpCount {
		return BurstNone
	}
	return burstClasses[op]
}

// Burstable reports whether op is register-only compute (BurstReg) —
// burstable with no precondition.
func Burstable(op Op) bool {
	return ClassOf(op) == BurstReg
}

var burstClasses = func() [opCount]BurstClass {
	var t [opCount]BurstClass
	for op := Op(0); op < opCount; op++ {
		switch infos[op].Unit {
		case UnitFX, UnitSH, UnitMUL, UnitDIV, UnitCTL:
			t[op] = BurstReg
		}
	}
	// Local-store and frame reads.
	for _, op := range []Op{LSRD, LSRD8, LSRDX, LSRDX8, LOAD, LOADX} {
		t[op] = BurstLSRead
	}
	// Direct local-store writes: safe ahead of the clock under the
	// quiescence horizon, because the horizon bounds the first cycle
	// any other component could run and hence *read* the store (the
	// MFC's PUT streaming, the LSE's frame reads — both are scheduled
	// components covered by the SPU's refined horizon). STORE/STOREX
	// are frame stores through the LSE inbox and must stay BurstNone.
	for _, op := range []Op{LSWR, LSWR8, LSWRX, LSWRX8} {
		t[op] = BurstLSWrite
	}
	return t
}()

// ByName resolves a mnemonic to its opcode.
func ByName(name string) (Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, OpCount)
	for op := Op(0); op < opCount; op++ {
		if infos[op].Name != "" {
			m[infos[op].Name] = op
		}
	}
	return m
}()

func (o Op) String() string {
	if info, ok := Lookup(o); ok {
		return info.Name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}
