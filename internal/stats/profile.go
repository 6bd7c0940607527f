package stats

import (
	"slices"

	"repro/internal/program"
)

// Loc identifies one guest program counter: a template's code block and
// the instruction index within it. The zero Template is valid; idle
// cycles (no thread resident) carry IdleLoc.
type Loc struct {
	Template int32 // program template index (-1: no thread resident)
	Block    uint8 // program.BlockKind
	PC       int32 // instruction index within the block
}

// IdleLoc is the synthetic location idle cycles attribute to.
var IdleLoc = Loc{Template: -1}

// Profile is a machine's guest cycle profile and the only store its
// SPUs charge: the cycles each guest location spent on each cause, each
// SPE's cycles by cause, and the instructions each SPE executed at each
// location. All SPUs of a machine share one (the engine is
// single-threaded); each folds its stats.SPU from it when the run ends
// (Fold), so the breakdowns are views of the profile, not a second
// ledger.
//
// It is dense. Shape gives row 0 to IdleLoc and one row to every
// instruction of the bound program, template by template, block by
// block, in pc order — the (template, block, pc) order samples come out
// in — and a row is NumCauses cycle counters, summed over SPEs, so a
// charge is one indexed add there and one in the SPE's total. The zero
// Profile is shaped for no program.
type Profile struct {
	cells []int64          // row*NumCauses + cause; zero beyond the shaped rows
	spe   []CauseBreakdown // each SPE's cycles by cause
	instr []int64          // row*spes + spe: instructions the SPE executed at row
	rows  int              // rows of the bound program
	spes  int              // SPEs charging it
	first []int32          // first row of each code block, by template*NumBlocks + block
}

// Shape readies p, empty, for prog on spes SPEs. The buffers only grow,
// and only the rows the previous program used are zeroed.
func (p *Profile) Shape(prog *program.Program, spes int) {
	clear(p.instr[:p.rows*p.spes])
	clear(p.used())
	p.first = p.first[:0]
	p.rows = 1
	for i := range prog.Templates {
		for _, b := range prog.Templates[i].Blocks {
			p.first = append(p.first, int32(p.rows))
			p.rows += len(b)
		}
	}
	if n := p.rows * int(NumCauses); n > len(p.cells) {
		p.cells = make([]int64, n)
	}
	if n := p.rows * spes; n > len(p.instr) {
		p.instr = make([]int64, n)
	}
	p.spes = spes
	p.spe = slices.Grow(p.spe[:0], spes)[:spes]
	clear(p.spe)
}

// Row returns the row of pc 0 of template tmpl's block blk: the row of
// pc n is Row(tmpl, blk) + n.
func (p *Profile) Row(tmpl int, blk program.BlockKind) int {
	return int(p.first[tmpl*int(program.NumBlocks)+int(blk)])
}

// Rows returns the number of rows, the idle row included.
func (p *Profile) Rows() int { return p.rows }

// Add attributes n cycles of SPE spe at row to cause c. Bulk-friendly: a
// burst window charges once with the window's width, not once per cycle.
func (p *Profile) Add(spe, row int, c Cause, n int64) {
	p.cells[row*int(NumCauses)+int(c)] += n
	p.spe[spe][c] += n
}

// AddInstr counts n instructions SPE spe executed at row.
func (p *Profile) AddInstr(spe, row int, n int64) {
	p.instr[row*p.spes+spe] += n
}

// Fold sets the cycle and instruction counts of SPE spe's statistics s
// from the profile, shaped for prog: Causes, Breakdown, Instr and
// IssuedSlots. The other fields of s are the SPU's own.
func (p *Profile) Fold(spe int, prog *program.Program, s *SPU) {
	s.Causes = p.spe[spe]
	s.Breakdown = s.Causes.Buckets()
	s.Instr = InstrCounts{}
	row := 1
	for _, t := range prog.Templates {
		for _, b := range t.Blocks {
			for _, ins := range b {
				s.Instr.Add(ins.Op, p.instr[row*p.spes+spe])
				row++
			}
		}
	}
	s.IssuedSlots = s.Instr.Total
}

// loc returns the guest location of row.
func (p *Profile) loc(row int) Loc {
	if row == 0 {
		return IdleLoc
	}
	// The last block that starts at or before row holds it (empty
	// blocks share their successor's first row).
	b, _ := slices.BinarySearch(p.first, int32(row)+1)
	b--
	nb := int(program.NumBlocks)
	return Loc{Template: int32(b / nb), Block: uint8(b % nb), PC: int32(row) - p.first[b]}
}

// rowOf returns the row of loc, or false when loc is no location of
// the bound program.
func (p *Profile) rowOf(loc Loc) (int, bool) {
	if loc == IdleLoc {
		return 0, true
	}
	nb := int32(program.NumBlocks)
	b := loc.Template*nb + int32(loc.Block)
	if loc.Template < 0 || int32(loc.Block) >= nb || int(b) >= len(p.first) || loc.PC < 0 {
		return 0, false
	}
	end := int32(p.rows)
	if int(b)+1 < len(p.first) {
		end = p.first[b+1]
	}
	if row := p.first[b] + loc.PC; row < end {
		return int(row), true
	}
	return 0, false
}

// used returns the cells of the bound program's rows.
func (p *Profile) used() []int64 { return p.cells[:p.rows*int(NumCauses)] }

// Len returns the number of distinct (location, cause) samples: the
// non-zero cells.
func (p *Profile) Len() int {
	n := 0
	for _, v := range p.used() {
		if v != 0 {
			n++
		}
	}
	return n
}

// Total returns the cycles across all samples. On a completed run this
// equals the aggregate Breakdown total, which the SPUs fold from the
// same charges.
func (p *Profile) Total() int64 {
	var t int64
	for _, v := range p.used() {
		t += v
	}
	return t
}

// LocSample is one location's aggregated cycle attribution.
type LocSample struct {
	Loc    Loc
	Causes CauseBreakdown
	Total  int64
}

// Samples returns the per-location attribution of every location with
// cycles, in (template, block, pc) order — the export order of
// obs.WriteProfile, so identical runs encode to identical profiles.
func (p *Profile) Samples() []LocSample {
	var out []LocSample
	for row := range p.rows {
		var s LocSample
		copy(s.Causes[:], p.cells[row*int(NumCauses):])
		if s.Total = s.Causes.Total(); s.Total != 0 {
			s.Loc = p.loc(row)
			out = append(out, s)
		}
	}
	return out
}

// Causes folds the store by cause (the per-run totals surfaced in
// metrics and tables).
func (p *Profile) Causes() CauseBreakdown {
	var out CauseBreakdown
	cells := p.used()
	for i, v := range cells {
		out[i%int(NumCauses)] += v
	}
	return out
}

// Equal reports whether two profiles hold identical samples — the
// differential suites' comparison.
func (p *Profile) Equal(o *Profile) bool {
	return slices.Equal(p.Samples(), o.Samples())
}
