package spu

import (
	"repro/internal/dta"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Threads visits the thread the pipeline currently holds a reference
// to, if any (registry enumeration for the machine snapshot).
func (s *SPU) Threads(visit func(*dta.Thread)) {
	if s.cur != nil {
		visit(s.cur)
	}
}

// Walk writes or reads the pipeline's mutable state, the current thread
// as a reference into reg. Derived state — the decoded uop table, the
// kernel window's live MFC ranges — is not serialised, and neither are
// the run steps' counts, which a write expects charged to the profile
// (ChargeRuns) and a read zeroes. A read needs an identically
// configured SPU running the same program: it rebuilds the uop table
// from (template, block); the next window reads the ranges afresh from
// the restored MFC.
func (s *SPU) Walk(c *snap.Codec, reg *dta.Registry) {
	snap.Ints(c, s.regs[:])
	snap.Ints(c, s.ready[:])
	for i := range s.prod {
		snap.Byte(c, &s.prod[i])
	}
	reg.Ref(c, &s.cur)
	snap.Int(c, &s.curKind)
	block := uint8(s.block)
	if snap.Byte(c, &block); c.Reading() {
		s.block = program.BlockKind(block)
	}
	snap.Int(c, &s.pc)
	snap.Byte(c, &s.ph)
	snap.Int(c, &s.gapCause)
	snap.Int(c, &s.gapRow)
	for _, p := range []*sim.Cycle{&s.accounted, &s.nextIssueAt, &s.resumeAt} {
		snap.Int(c, p)
	}
	snap.Byte(c, &s.readDst)
	snap.Int(c, &s.reqSeq)
	snap.Byte(c, &s.fallocRd)
	c.Bool(&s.resp.held)
	snap.Int(c, &s.resp.at)
	snap.Int(c, &s.resp.val)
	snap.Int(c, &s.unitStart)
	s.st.Walk(c)
	if !c.Reading() || c.Err() != nil {
		return
	}
	clear(s.steps)
	if s.gapRow < 0 || s.gapRow >= s.Prof.Rows() {
		c.Fail("spu%d: snapshot profile row %d outside the program", s.spe, s.gapRow)
		return
	}
	s.uops, s.runAt, s.row0 = nil, nil, 0
	if s.cur == nil {
		return
	}
	if s.cur.Template < 0 || s.cur.Template >= len(s.code.prog.Templates) {
		c.Fail("spu%d: snapshot thread template %d out of range", s.spe, s.cur.Template)
		return
	}
	s.enter()
	if s.pc > len(s.uops) {
		c.Fail("spu%d: snapshot pc %d beyond block of %d", s.spe, s.pc, len(s.uops))
	}
}
