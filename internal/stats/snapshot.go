package stats

import "repro/internal/snap"

// Walk writes or reads the statistics an SPU counts itself mid-run;
// the rest are folded from the profile when the run ends.
func (s *SPU) Walk(c *snap.Codec) {
	snap.Int(c, &s.Threads)
	snap.Int(c, &s.PFBlocks)
}

// Walk writes or reads the profile's non-zero cells in (template,
// block, pc, cause) order, each with its location, then the SPE totals
// and the instruction column. A read needs a profile shaped for the
// program and the SPE count that wrote it, and refuses a location the
// program does not have and totals or a column of another shape.
func (p *Profile) Walk(c *snap.Codec) {
	p.walkCells(c)
	snap.Fixed(c, "stats: profile SPEs", p.spe, func(c *snap.Codec, b *CauseBreakdown) { snap.Ints(c, b[:]) })
	snap.Fixed(c, "stats: profile instruction column", p.instr[:p.rows*p.spes], snap.Int[int64])
}

func (p *Profile) walkCells(c *snap.Codec) {
	cell := func(loc *Loc, cause *Cause, v *int64) {
		snap.Int(c, &loc.Template)
		snap.Byte(c, &loc.Block)
		snap.Int(c, &loc.PC)
		snap.Int(c, cause)
		snap.Int(c, v)
	}
	if !c.Reading() {
		c.Len(p.Len())
		for i, v := range p.used() {
			if v != 0 {
				loc, cause := p.loc(i/int(NumCauses)), Cause(i%int(NumCauses))
				cell(&loc, &cause, &v)
			}
		}
		return
	}
	clear(p.used())
	for range c.Len(0) {
		var loc Loc
		var cause Cause
		var v int64
		cell(&loc, &cause, &v)
		row, ok := p.rowOf(loc)
		if !ok || cause < 0 || cause >= NumCauses {
			c.Fail("stats: snapshot profile sample at %+v cause %d outside the program", loc, cause)
			return
		}
		p.cells[row*int(NumCauses)+int(cause)] = v
	}
}
