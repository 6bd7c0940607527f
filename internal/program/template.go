// Package program defines the representation of DTA programs: thread
// templates split into the paper's code blocks (PF, PL, EX, PS), declared
// global-data regions used by the prefetch transformer, the initial main
// memory image, and a builder API (a macro-assembler) that the workloads
// use to construct programs.
//
// Code-block discipline (paper §2): a thread reads its frame in the
// pre-load (PL) block, computes in the execution (EX) block and writes
// other threads' frames in the post-store (PS) block. The original DTA
// still allowed main-memory READ/WRITE in EX — those are exactly the
// accesses the DMA prefetching mechanism decouples by adding a PreFetch
// (PF) block. The Validate method enforces the discipline so that
// hand-built workloads cannot silently break the model.
package program

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// BlockKind identifies one of the four code blocks of a DTA thread.
type BlockKind int

const (
	PF BlockKind = iota // PreFetch: programs the DMA unit (added by the transformer)
	PL                  // Pre-Load: frame -> registers
	EX                  // EXecution: pure compute (+ main-memory accesses in original DTA)
	PS                  // Post-Store: registers -> other threads' frames
	NumBlocks
)

func (k BlockKind) String() string {
	switch k {
	case PF:
		return "pf"
	case PL:
		return "pl"
	case EX:
		return "ex"
	case PS:
		return "ps"
	}
	return fmt.Sprintf("block(%d)", int(k))
}

// BlockKindByName resolves "pf"/"pl"/"ex"/"ps".
func BlockKindByName(s string) (BlockKind, bool) {
	switch s {
	case "pf":
		return PF, true
	case "pl":
		return PL, true
	case "ex":
		return EX, true
	case "ps":
		return PS, true
	}
	return 0, false
}

// MaxFrameSlots is the architectural frame size in 64-bit slots (256
// bytes per frame). The paper does not state the CellDTA frame size; 32
// slots matches the SDF/DTA-C lineage of small fixed-size frames.
const MaxFrameSlots = 32

// AddrTerm contributes frame[Slot]*Scale to an address expression.
type AddrTerm struct {
	Slot  int   // frame slot holding the variable
	Scale int64 // multiplier
}

// AddrExpr describes a runtime address: Const + Σ frame[t.Slot]*t.Scale.
// The prefetch transformer synthesises PF-block code that evaluates it.
type AddrExpr struct {
	Const int64
	Terms []AddrTerm
}

// SizeExpr describes a transfer size in bytes: Const when Slot < 0,
// otherwise Const + frame[Slot]*Scale.
type SizeExpr struct {
	Const int64
	Slot  int
	Scale int64
}

// SizeConst returns a constant SizeExpr.
func SizeConst(n int64) SizeExpr { return SizeExpr{Const: n, Slot: -1} }

// SizeSlot returns a frame-dependent SizeExpr (frame[slot]*scale + c).
func SizeSlot(slot int, scale, c int64) SizeExpr {
	return SizeExpr{Const: c, Slot: slot, Scale: scale}
}

// Region declares a block of global (main-memory) data that a thread
// reads. The prefetch transformer turns each region into DMA GETs in a
// synthesised PF block and rewrites the tagged READ accesses into
// local-store accesses.
type Region struct {
	Name     string
	Base     AddrExpr
	Size     SizeExpr
	MaxBytes int // static prefetch-buffer reservation; must bound Size
	// ChunkBytes > 0 splits the fetch into one DMA command per chunk
	// (e.g. one per matrix row: a 2D object cannot be fetched with a
	// single contiguous command). Zero fetches the region in one
	// command. Chunking models the paper's per-object programming cost —
	// the "Prefetching" overhead of Figure 5b.
	ChunkBytes int
}

// Access tags one READ/READ8 instruction as falling inside a region, so
// the transformer may rewrite it. Instructions without a tag are left
// blocking (the paper leaves non-profitable accesses undecoupled, e.g.
// the single data-dependent table lookup in bitcnt).
type Access struct {
	Block  BlockKind
	Index  int // instruction index within the block
	Region int // index into Template.Regions
}

// Template is one DTA thread type: its four code blocks plus the
// prefetch metadata.
type Template struct {
	Name     string
	ID       int
	Blocks   [NumBlocks][]isa.Instruction
	Regions  []Region
	Accesses []Access

	// PrefetchBytes is the static prefetch-buffer reservation for the
	// template (sum of aligned region MaxBytes); it is filled in by the
	// prefetch transformer and zero for untransformed templates.
	PrefetchBytes int
	// RegionOffsets[i] is the offset of the i'th prefetched region
	// inside the thread's buffer (filled in by the transformer).
	RegionOffsets []int
	// Transformed marks templates rewritten by the prefetch transformer.
	Transformed bool
}

// CodeLen returns the total number of instructions across all blocks.
func (t *Template) CodeLen() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b)
	}
	return n
}

// legalIn is the block discipline, and its only statement (Validate
// reads the legal table, which init fills from it). See the package
// comment; "original DTA" rules with the prefetch extensions:
//
//	PF: frame loads, compute, branches, MFC channel ops
//	PL: frame loads, compute, branches, direct LS reads
//	EX: compute, branches, main-memory READ/WRITE, direct LS ops, FALLOC
//	PS: compute, branches, frame stores, FALLOC, FFREE, STOP, WRITE,
//	    MFC channel ops (write-back PUTs)
func legalIn(op isa.Op, k BlockKind) bool {
	info := isa.MustInfo(op)
	switch info.Unit {
	case isa.UnitFX, isa.UnitSH, isa.UnitMUL, isa.UnitDIV, isa.UnitCTL:
		return true
	}
	switch op {
	case isa.LOAD, isa.LOADX:
		return k == PF || k == PL
	case isa.STORE, isa.STOREX:
		return k == PS
	case isa.READ, isa.READ8:
		return k == EX
	case isa.WRITE, isa.WRITE8:
		return k == EX || k == PS
	case isa.LSRD, isa.LSRD8, isa.LSRDX, isa.LSRDX8:
		return k == PL || k == EX
	case isa.LSWR, isa.LSWR8, isa.LSWRX, isa.LSWRX8:
		return k == EX
	case isa.FALLOC, isa.FALLOCX:
		return k == EX || k == PS
	case isa.FFREE, isa.STOP:
		return k == PS
	case isa.MFCLSA, isa.MFCEA, isa.MFCSZ, isa.MFCTAG, isa.MFCGET, isa.MFCPUT, isa.MFCSTAT:
		// PF programs prefetches; PS may program write-back PUTs (the
		// write-decoupling extension, ablation A7).
		return k == PF || k == PS
	}
	return false
}

// legal[op][k] is legalIn(op, k) for every defined opcode, tabulated so
// that validating an instruction costs an index, not two switches.
var legal [isa.OpCount][NumBlocks]bool

func init() {
	for op := range legal {
		if _, ok := isa.Lookup(isa.Op(op)); !ok {
			continue
		}
		for k := range legal[op] {
			legal[op][k] = legalIn(isa.Op(op), BlockKind(k))
		}
	}
}

// Validation errors.
var (
	ErrBlockDiscipline = errors.New("program: instruction not allowed in code block")
	ErrBranchTarget    = errors.New("program: branch target out of block")
	ErrNoStop          = errors.New("program: PS block must end with stop")
	ErrBadRegion       = errors.New("program: malformed region")
	ErrBadAccess       = errors.New("program: malformed region access tag")
	ErrBadSlot         = errors.New("program: frame slot out of range")
)

// Validate checks the template: instruction well-formedness, code-block
// discipline, branch targets, slot ranges, region declarations and access
// tags. templates is the program's template table (for FALLOC targets);
// it may be nil to skip cross-template checks.
func (t *Template) Validate(templates []*Template) error {
	for k := BlockKind(0); k < NumBlocks; k++ {
		block := t.Blocks[k]
		for i, ins := range block {
			if err := ins.Validate(); err != nil {
				return fmt.Errorf("%s/%s[%d] %s: %w", t.Name, k, i, ins, err)
			}
			if !legal[ins.Op][k] {
				return fmt.Errorf("%w: %s in %s block of %s", ErrBlockDiscipline, ins, k, t.Name)
			}
			if isa.InfoOf(ins.Op).Branch {
				if int(ins.Imm) < 0 || int(ins.Imm) >= len(block) {
					return fmt.Errorf("%w: %s/%s[%d] %s targets %d (block len %d)",
						ErrBranchTarget, t.Name, k, i, ins, ins.Imm, len(block))
				}
			}
			switch ins.Op {
			case isa.LOAD:
				if ins.Imm < 0 || ins.Imm >= MaxFrameSlots {
					return fmt.Errorf("%w: load slot %d in %s", ErrBadSlot, ins.Imm, t.Name)
				}
			case isa.STORE:
				if ins.Imm < 0 || ins.Imm >= MaxFrameSlots {
					return fmt.Errorf("%w: store slot %d in %s", ErrBadSlot, ins.Imm, t.Name)
				}
			case isa.FALLOC:
				tmpl, sc := isa.UnpackFalloc(ins.Imm)
				if templates != nil {
					if tmpl < 0 || tmpl >= len(templates) {
						return fmt.Errorf("program: falloc in %s references template %d of %d",
							t.Name, tmpl, len(templates))
					}
				}
				if sc > MaxFrameSlots {
					return fmt.Errorf("%w: falloc sc %d exceeds frame slots", ErrBadSlot, sc)
				}
			}
		}
	}
	if ps := t.Blocks[PS]; len(ps) == 0 || ps[len(ps)-1].Op != isa.STOP {
		return fmt.Errorf("%w: template %s", ErrNoStop, t.Name)
	}
	for _, r := range t.Regions {
		if r.MaxBytes <= 0 {
			return fmt.Errorf("%w: region %q has MaxBytes %d", ErrBadRegion, r.Name, r.MaxBytes)
		}
		if r.Size.Slot < 0 && (r.Size.Const <= 0 || r.Size.Const > int64(r.MaxBytes)) {
			return fmt.Errorf("%w: region %q constant size %d outside (0, %d]",
				ErrBadRegion, r.Name, r.Size.Const, r.MaxBytes)
		}
		for _, term := range r.Base.Terms {
			if term.Slot < 0 || term.Slot >= MaxFrameSlots {
				return fmt.Errorf("%w: region %q base slot %d", ErrBadRegion, r.Name, term.Slot)
			}
		}
		if r.Size.Slot >= MaxFrameSlots {
			return fmt.Errorf("%w: region %q size slot %d", ErrBadRegion, r.Name, r.Size.Slot)
		}
	}
	for _, a := range t.Accesses {
		if a.Block < 0 || a.Block >= NumBlocks || a.Index < 0 || a.Index >= len(t.Blocks[a.Block]) {
			return fmt.Errorf("%w: access (%v,%d) in %s", ErrBadAccess, a.Block, a.Index, t.Name)
		}
		if a.Region < 0 || a.Region >= len(t.Regions) {
			return fmt.Errorf("%w: access references region %d of %d in %s",
				ErrBadAccess, a.Region, len(t.Regions), t.Name)
		}
		op := t.Blocks[a.Block][a.Index].Op
		switch op {
		case isa.READ, isa.READ8, isa.WRITE, isa.WRITE8:
		default:
			return fmt.Errorf("%w: access tags %s (only read/write can be tagged)", ErrBadAccess, op)
		}
	}
	return nil
}
