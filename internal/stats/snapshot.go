package stats

import "repro/internal/snap"

// Walk writes or reads one SPU's accumulated statistics.
func (s *SPU) Walk(c *snap.Codec) {
	snap.Ints(c, s.Breakdown[:])
	snap.Ints(c, s.Causes[:])
	in := &s.Instr
	for _, p := range []*int64{&in.Total, &in.Load, &in.Store, &in.Read, &in.Write, &in.LSDir, &in.DTA, &in.MFC,
		&s.IssuedSlots, &s.Cycles, &s.Threads, &s.PFBlocks} {
		snap.Int(c, p)
	}
}

// Walk writes or reads the profile's non-zero cells in (template,
// block, pc, cause) order, each with its location. A read needs a
// profile shaped for the program that wrote it, and refuses a location
// the program does not have.
func (p *Profile) Walk(c *snap.Codec) {
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
