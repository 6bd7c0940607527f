package stats

import (
	"cmp"

	"repro/internal/snap"
)

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

// Walk writes or reads the profile's samples in (template, block, pc,
// cause) order. A nil profile has no samples, matching its no-op
// semantics, and refuses a snapshot that has some.
func (p *Profile) Walk(c *snap.Codec) {
	if p == nil {
		if c.Len(0) != 0 {
			c.Fail("stats: snapshot has profile samples, this machine keeps no profile")
		}
		return
	}
	snap.Map(c, p.m, func(a, b profKey) int {
		switch {
		case a.Loc.Template != b.Loc.Template:
			return cmp.Compare(a.Loc.Template, b.Loc.Template)
		case a.Loc.Block != b.Loc.Block:
			return cmp.Compare(a.Loc.Block, b.Loc.Block)
		case a.Loc.PC != b.Loc.PC:
			return cmp.Compare(a.Loc.PC, b.Loc.PC)
		}
		return cmp.Compare(a.Cause, b.Cause)
	}, func(c *snap.Codec, k *profKey, v *int64) {
		snap.Int(c, &k.Loc.Template)
		snap.Byte(c, &k.Loc.Block)
		snap.Int(c, &k.Loc.PC)
		snap.Int(c, &k.Cause)
		snap.Int(c, v)
	})
}
