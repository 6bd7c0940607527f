// Package prefetch implements the compiler side of the paper's
// mechanism (§3): given a DTA program whose templates declare the global
// data regions they read (and whose READ instructions are tagged with
// the region they fall into), the transformer
//
//  1. synthesises a PreFetch (PF) code block that computes each region's
//     address from the thread's frame inputs and programs the MFC (one
//     DMA GET per region, all in the thread's tag group);
//  2. prepends a PL prologue that computes, per region, the delta
//     between the region's main-memory base and its local prefetch
//     buffer copy; and
//  3. rewrites every tagged READ/READ8 into an indexed local-store
//     access (LSRDX/LSRDX8) that adds the delta — so the original
//     address arithmetic of the EX block keeps working unchanged, but
//     hits the local store instead of blocking on main memory.
//
// Untagged READs are left blocking, mirroring the paper's policy of not
// decoupling accesses where prefetching is not worthwhile (e.g. a single
// data-dependent lookup into a large table).
package prefetch

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/ls"
	"repro/internal/program"
)

// Register plan inside the transformer-reserved range [FirstReservedReg,
// RegTag): deltas for up to MaxRegions regions, then scratch.
const (
	// MaxRegions bounds prefetched regions per template (delta registers
	// are statically assigned).
	MaxRegions = 8

	regDelta0 = isa.FirstReservedReg // 104..111: per-region deltas
	regTmpA   = isa.FirstReservedReg + MaxRegions
	regTmpB   = isa.FirstReservedReg + MaxRegions + 1
	regSize   = isa.FirstReservedReg + MaxRegions + 2
	regChunk  = isa.FirstReservedReg + MaxRegions + 3
	regSz     = isa.FirstReservedReg + MaxRegions + 4
)

// Options selects optional transformations beyond the paper's read
// prefetching.
type Options struct {
	// WriteBack additionally decouples tagged WRITEs: they are
	// redirected into a local staging buffer and flushed to main memory
	// by DMA PUT commands programmed at the start of the PS block (the
	// write-side dual of the paper's mechanism; ablation A7). Write-back
	// regions must be fully written by the thread, or also read-tagged
	// so the PF block populates the staging buffer first.
	WriteBack bool
	// WholeRegions fetches (and writes back) every region with a single
	// DMA command, ignoring Region.ChunkBytes (ablation A6).
	WholeRegions bool
}

// Transform returns a sealed prefetching variant of p: copies of the
// templates with tagged region accesses gain PF blocks and local-store
// rewrites, and share everything else with p, which is not modified.
func Transform(p *program.Program) (*program.Program, error) {
	return TransformWithOptions(p, Options{})
}

// TransformWithOptions is Transform with extension knobs.
func TransformWithOptions(p *program.Program, opt Options) (*program.Program, error) {
	q := *p
	q.Templates = slices.Clone(p.Templates)
	for i, t := range q.Templates {
		if len(t.Accesses) == 0 {
			continue
		}
		nt, err := transformTemplate(t, opt)
		if err != nil {
			return nil, fmt.Errorf("prefetch: template %q: %w", t.Name, err)
		}
		q.Templates[i] = nt
	}
	if err := program.Seal(&q); err != nil {
		return nil, fmt.Errorf("prefetch: transformed program invalid: %w", err)
	}
	return &q, nil
}

// Stats summarises what the transformation did (the paper reports the
// fraction of READs decoupled — 62% for bitcnt, 100% for mmul/zoom).
type Stats struct {
	Templates      int // templates transformed
	Regions        int // regions prefetched
	ReadsTotal     int // static READ/READ8 instructions before
	ReadsRewritten int
	BufferBytes    int // total prefetch reservation across templates
}

// DecoupledFraction returns rewritten/total (0 when there are no reads).
func (s Stats) DecoupledFraction() float64 {
	if s.ReadsTotal == 0 {
		return 0
	}
	return float64(s.ReadsRewritten) / float64(s.ReadsTotal)
}

// Analyze reports transformation statistics by comparing the original
// program with its transformed counterpart.
func Analyze(before, after *program.Program) Stats {
	var st Stats
	for i, t := range before.Templates {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			for _, ins := range t.Blocks[k] {
				if ins.Op == isa.READ || ins.Op == isa.READ8 {
					st.ReadsTotal++
				}
			}
		}
		at := after.Templates[i]
		if at.Transformed {
			st.Templates++
			st.Regions += len(at.RegionOffsets)
			st.BufferBytes += at.PrefetchBytes
		}
		st.ReadsRewritten += len(t.Accesses)
	}
	return st
}

// transformTemplate returns a rewritten copy of orig.
func transformTemplate(orig *program.Template, opt Options) (*program.Template, error) {
	nt := *orig
	t := &nt
	for k := range t.Blocks {
		t.Blocks[k] = slices.Clone(t.Blocks[k])
	}
	if opt.WholeRegions {
		t.Regions = slices.Clone(t.Regions)
		for i := range t.Regions {
			t.Regions[i].ChunkBytes = 0
		}
	}

	// Classify accesses: reads are the paper's mechanism; writes are
	// handled only in write-back mode (otherwise their tags are dropped
	// and the WRITEs stay posted, as in the paper).
	isWriteAccess := func(a program.Access) bool {
		op := t.Blocks[a.Block][a.Index].Op
		return op == isa.WRITE || op == isa.WRITE8
	}
	var accesses []program.Access
	usedRead := make([]bool, len(t.Regions))
	usedWrite := make([]bool, len(t.Regions))
	for _, a := range t.Accesses {
		if isWriteAccess(a) {
			if !opt.WriteBack {
				continue
			}
			usedWrite[a.Region] = true
		} else {
			usedRead[a.Region] = true
		}
		accesses = append(accesses, a)
	}
	if len(accesses) == 0 {
		t.Accesses = nil
		return t, nil
	}
	var regions []int
	for i := range t.Regions {
		if usedRead[i] || usedWrite[i] {
			regions = append(regions, i)
		}
	}
	if len(regions) > MaxRegions {
		return nil, fmt.Errorf("%d regions referenced, max %d", len(regions), MaxRegions)
	}

	// Assign buffer offsets (16-byte aligned, as the MFC requires) and
	// per-region delta registers.
	offsets := make(map[int]int, len(regions))
	deltaFor := make(map[int]uint8, len(regions))
	total := 0
	for n, ri := range regions {
		offsets[ri] = total
		deltaFor[ri] = uint8(regDelta0 + n)
		total += (t.Regions[ri].MaxBytes + ls.Align - 1) &^ (ls.Align - 1)
	}

	// 1. Synthesise the PF block (GETs for read-referenced regions) and,
	// in write-back mode, the PS prologue (PUTs for written regions).
	var pf []isa.Instruction
	for _, ri := range regions {
		if !usedRead[ri] {
			continue
		}
		var err error
		pf, err = emitRegionXfer(pf, t.Regions[ri], offsets[ri], isa.MFCGET)
		if err != nil {
			return nil, fmt.Errorf("region %q: %w", t.Regions[ri].Name, err)
		}
	}
	if len(t.Blocks[program.PF]) > 0 && len(pf) > 0 {
		return nil, fmt.Errorf("template already has a PF block")
	}
	if len(pf) > 0 {
		t.Blocks[program.PF] = pf
	}
	if opt.WriteBack {
		var puts []isa.Instruction
		for _, ri := range regions {
			if !usedWrite[ri] {
				continue
			}
			var err error
			puts, err = emitRegionPut(puts, t.Regions[ri], offsets[ri], deltaFor[ri])
			if err != nil {
				return nil, fmt.Errorf("region %q put: %w", t.Regions[ri].Name, err)
			}
		}
		if len(puts) > 0 {
			t.Blocks[program.PS] = prependWithFixups(puts, t.Blocks[program.PS])
		}
	}

	// 2. PL prologue: delta_i = (RegPFB + offset_i) - base_i.
	var prologue []isa.Instruction
	for n, ri := range regions {
		r := t.Regions[ri]
		code, err := emitAddr(r.Base, regTmpA, regTmpB)
		if err != nil {
			return nil, err
		}
		prologue = append(prologue, code...)
		delta := uint8(regDelta0 + n)
		prologue = append(prologue,
			isa.Instruction{Op: isa.ADDI, Rd: delta, Ra: isa.RegPFB, Imm: int32(offsets[ri])},
			isa.Instruction{Op: isa.SUB, Rd: delta, Ra: delta, Rb: regTmpA})
	}
	t.Blocks[program.PL] = prependWithFixups(prologue, t.Blocks[program.PL])

	// 3. Rewrite tagged accesses in place.
	for _, a := range accesses {
		block := t.Blocks[a.Block]
		ins := &block[a.Index]
		switch ins.Op {
		case isa.READ:
			ins.Op = isa.LSRDX
		case isa.READ8:
			ins.Op = isa.LSRDX8
		case isa.WRITE:
			ins.Op = isa.LSWRX
		case isa.WRITE8:
			ins.Op = isa.LSWRX8
		default:
			return nil, fmt.Errorf("access tags non-memory op %s", ins.Op)
		}
		if ins.Rb != 0 {
			return nil, fmt.Errorf("tagged access uses rb: %s", ins)
		}
		ins.Rb = deltaFor[a.Region]
	}

	t.Accesses = nil
	t.PrefetchBytes = total
	t.RegionOffsets = make([]int, 0, len(regions))
	for _, ri := range regions {
		t.RegionOffsets = append(t.RegionOffsets, offsets[ri])
	}
	t.Transformed = true
	return t, nil
}

// prependWithFixups inserts a prologue before a block, shifting the
// block's branch targets.
func prependWithFixups(prologue, block []isa.Instruction) []isa.Instruction {
	shift := int32(len(prologue))
	out := make([]isa.Instruction, 0, len(prologue)+len(block))
	out = append(out, prologue...)
	for _, ins := range block {
		if isa.MustInfo(ins.Op).Branch {
			ins.Imm += shift
		}
		out = append(out, ins)
	}
	return out
}

// emitRegionXfer appends the DMA-programming code for one region (cmd is
// MFCGET for prefetch, MFCPUT for write-back). Unchunked regions issue a
// single command; chunked regions run a command loop (one command per
// ChunkBytes), which is where fetching 2D objects like matrices pays a
// per-row programming cost.
func emitRegionXfer(pf []isa.Instruction, r program.Region, bufOff int, cmd isa.Op) ([]isa.Instruction, error) {
	code, err := emitAddr(r.Base, regTmpA, regTmpB)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	pf = append(pf, code...)

	single := r.ChunkBytes <= 0 ||
		(r.Size.Slot < 0 && r.Size.Const <= int64(r.ChunkBytes))
	if single {
		pf = append(pf, isa.Instruction{Op: isa.MFCEA, Ra: regTmpA})
		pf = append(pf,
			isa.Instruction{Op: isa.ADDI, Rd: regTmpB, Ra: isa.RegPFB, Imm: int32(bufOff)},
			isa.Instruction{Op: isa.MFCLSA, Ra: regTmpB})
		szCode, err := emitSize(r.Size, regSize)
		if err != nil {
			return nil, fmt.Errorf("size: %w", err)
		}
		pf = append(pf, szCode...)
		pf = append(pf, isa.Instruction{Op: isa.MFCSZ, Ra: regSize})
		pf = append(pf, isa.Instruction{Op: isa.MFCTAG, Ra: isa.RegTag})
		pf = append(pf, isa.Instruction{Op: cmd})
		return pf, nil
	}

	// Chunked loop. regTmpA walks the main-memory address, regTmpB the
	// LS address, regSize the remaining bytes, regSz this command's size.
	pf = append(pf, isa.Instruction{Op: isa.ADDI, Rd: regTmpB, Ra: isa.RegPFB, Imm: int32(bufOff)})
	szCode, err := emitSize(r.Size, regSize)
	if err != nil {
		return nil, fmt.Errorf("size: %w", err)
	}
	pf = append(pf, szCode...)
	pf = append(pf, isa.Instruction{Op: isa.MOVI, Rd: regChunk, Imm: int32(r.ChunkBytes)})
	top := int32(len(pf))
	pf = append(pf,
		isa.Instruction{Op: isa.MFCEA, Ra: regTmpA},           // top+0
		isa.Instruction{Op: isa.MFCLSA, Ra: regTmpB},          // top+1
		isa.Instruction{Op: isa.MOV, Rd: regSz, Ra: regChunk}, // top+2: sz = chunk
		isa.Instruction{Op: isa.BGE, Ra: regSize, Rb: regChunk, // top+3: rem >= chunk?
			Imm: top + 5},
		isa.Instruction{Op: isa.MOV, Rd: regSz, Ra: regSize}, // top+4: sz = rem
		isa.Instruction{Op: isa.MFCSZ, Ra: regSz},            // top+5
		isa.Instruction{Op: isa.MFCTAG, Ra: isa.RegTag},      // top+6
		isa.Instruction{Op: cmd},                             // top+7
		isa.Instruction{Op: isa.ADD, Rd: regTmpA, Ra: regTmpA, Rb: regSz},
		isa.Instruction{Op: isa.ADD, Rd: regTmpB, Ra: regTmpB, Rb: regSz},
		isa.Instruction{Op: isa.SUB, Rd: regSize, Ra: regSize, Rb: regSz},
		isa.Instruction{Op: isa.BLT, Ra: isa.RegZero, Rb: regSize, Imm: top},
	)
	return pf, nil
}

// emitRegionPut appends the PS-block DMA PUT programming for a
// write-back region. The main-memory base is recovered from the delta
// register computed by the PL prologue (base = PFB+offset-delta), so no
// frame reads are needed in PS. Write-back regions require constant
// sizes.
func emitRegionPut(ps []isa.Instruction, r program.Region, bufOff int, delta uint8) ([]isa.Instruction, error) {
	if r.Size.Slot >= 0 {
		return nil, fmt.Errorf("write-back region %q needs a constant size", r.Name)
	}
	size := r.Size.Const
	// regTmpA = main-memory base; regTmpB = LS staging base.
	ps = append(ps,
		isa.Instruction{Op: isa.ADDI, Rd: regTmpA, Ra: isa.RegPFB, Imm: int32(bufOff)},
		isa.Instruction{Op: isa.SUB, Rd: regTmpA, Ra: regTmpA, Rb: delta},
		isa.Instruction{Op: isa.ADDI, Rd: regTmpB, Ra: isa.RegPFB, Imm: int32(bufOff)},
	)
	if r.ChunkBytes <= 0 || size <= int64(r.ChunkBytes) {
		ps = append(ps,
			isa.Instruction{Op: isa.MFCEA, Ra: regTmpA},
			isa.Instruction{Op: isa.MFCLSA, Ra: regTmpB},
			isa.Instruction{Op: isa.MOVI, Rd: regSize, Imm: int32(size)},
			isa.Instruction{Op: isa.MFCSZ, Ra: regSize},
			isa.Instruction{Op: isa.MFCTAG, Ra: isa.RegTag},
			isa.Instruction{Op: isa.MFCPUT},
		)
		return ps, nil
	}
	ps = append(ps,
		isa.Instruction{Op: isa.MOVI, Rd: regSize, Imm: int32(size)},
		isa.Instruction{Op: isa.MOVI, Rd: regChunk, Imm: int32(r.ChunkBytes)},
	)
	top := int32(len(ps))
	ps = append(ps,
		isa.Instruction{Op: isa.MFCEA, Ra: regTmpA},
		isa.Instruction{Op: isa.MFCLSA, Ra: regTmpB},
		isa.Instruction{Op: isa.MOV, Rd: regSz, Ra: regChunk},
		isa.Instruction{Op: isa.BGE, Ra: regSize, Rb: regChunk, Imm: top + 5},
		isa.Instruction{Op: isa.MOV, Rd: regSz, Ra: regSize},
		isa.Instruction{Op: isa.MFCSZ, Ra: regSz},
		isa.Instruction{Op: isa.MFCTAG, Ra: isa.RegTag},
		isa.Instruction{Op: isa.MFCPUT},
		isa.Instruction{Op: isa.ADD, Rd: regTmpA, Ra: regTmpA, Rb: regSz},
		isa.Instruction{Op: isa.ADD, Rd: regTmpB, Ra: regTmpB, Rb: regSz},
		isa.Instruction{Op: isa.SUB, Rd: regSize, Ra: regSize, Rb: regSz},
		isa.Instruction{Op: isa.BLT, Ra: isa.RegZero, Rb: regSize, Imm: top},
	)
	return ps, nil
}

// emitAddr generates code leaving the address of expr in dst, using tmp
// as scratch.
func emitAddr(expr program.AddrExpr, dst, tmp uint8) ([]isa.Instruction, error) {
	var out []isa.Instruction
	if len(expr.Terms) == 0 {
		if !fitsInt32(expr.Const) {
			return nil, fmt.Errorf("constant base %#x exceeds 32 bits", expr.Const)
		}
		return []isa.Instruction{{Op: isa.MOVI, Rd: dst, Imm: int32(expr.Const)}}, nil
	}
	for i, term := range expr.Terms {
		target := dst
		if i > 0 {
			target = tmp
		}
		out = append(out, isa.Instruction{Op: isa.LOAD, Rd: target, Imm: int32(term.Slot)})
		if term.Scale != 1 {
			if !fitsInt32(term.Scale) {
				return nil, fmt.Errorf("scale %d exceeds 32 bits", term.Scale)
			}
			out = append(out, isa.Instruction{Op: isa.MULI, Rd: target, Ra: target, Imm: int32(term.Scale)})
		}
		if i > 0 {
			out = append(out, isa.Instruction{Op: isa.ADD, Rd: dst, Ra: dst, Rb: tmp})
		}
	}
	if expr.Const != 0 {
		if !fitsInt32(expr.Const) {
			return nil, fmt.Errorf("base offset %d exceeds 32 bits", expr.Const)
		}
		out = append(out, isa.Instruction{Op: isa.ADDI, Rd: dst, Ra: dst, Imm: int32(expr.Const)})
	}
	return out, nil
}

// emitSize generates code leaving the byte count of expr in dst.
func emitSize(expr program.SizeExpr, dst uint8) ([]isa.Instruction, error) {
	if expr.Slot < 0 {
		if !fitsInt32(expr.Const) {
			return nil, fmt.Errorf("constant size %d exceeds 32 bits", expr.Const)
		}
		return []isa.Instruction{{Op: isa.MOVI, Rd: dst, Imm: int32(expr.Const)}}, nil
	}
	out := []isa.Instruction{{Op: isa.LOAD, Rd: dst, Imm: int32(expr.Slot)}}
	if expr.Scale != 1 {
		if !fitsInt32(expr.Scale) {
			return nil, fmt.Errorf("size scale %d exceeds 32 bits", expr.Scale)
		}
		out = append(out, isa.Instruction{Op: isa.MULI, Rd: dst, Ra: dst, Imm: int32(expr.Scale)})
	}
	if expr.Const != 0 {
		if !fitsInt32(expr.Const) {
			return nil, fmt.Errorf("size offset %d exceeds 32 bits", expr.Const)
		}
		out = append(out, isa.Instruction{Op: isa.ADDI, Rd: dst, Ra: dst, Imm: int32(expr.Const)})
	}
	return out, nil
}

func fitsInt32(v int64) bool { return v == int64(int32(v)) }
