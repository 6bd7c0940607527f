package spu

import (
	"fmt"

	"repro/internal/dta"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Threads visits the thread the pipeline currently holds a reference
// to, if any (registry enumeration for the machine snapshot).
func (s *SPU) Threads(visit func(*dta.Thread)) {
	if s.cur != nil {
		visit(s.cur)
	}
}

// Snapshot serialises the pipeline's mutable state. The current thread
// is written as a registry index via index (-1 when idle). Derived
// state — the decoded uop table, the quiescence-horizon cache — is not
// serialised: the restore rebuilds the former from (template, block)
// and conservatively invalidates the latter.
func (s *SPU) Snapshot(w *snap.Writer, index func(*dta.Thread) int32) {
	for i := range s.regs {
		w.I64(s.regs[i])
	}
	for i := range s.ready {
		w.I64(int64(s.ready[i]))
	}
	for i := range s.prod {
		w.U8(uint8(s.prod[i]))
	}
	if s.cur == nil {
		w.I64(-1)
	} else {
		w.I64(int64(index(s.cur)))
	}
	w.Int(int(s.curKind))
	w.U8(uint8(s.block))
	w.Int(s.pc)
	w.U8(uint8(s.ph))
	w.Int(int(s.gapCause))
	w.I64(int64(s.gapLoc.Template))
	w.U8(s.gapLoc.Block)
	w.I64(int64(s.gapLoc.PC))
	w.I64(int64(s.accounted))
	w.I64(int64(s.nextIssueAt))
	w.I64(int64(s.resumeAt))
	w.I64(0) // reserved: keeps the layout of blobs written before the burst kernel
	w.U8(s.readDst)
	w.I64(s.reqSeq)
	w.U8(s.fallocRd)
	w.Bool(s.resp.held)
	w.I64(int64(s.resp.at))
	w.I64(s.resp.val)
	w.I64(int64(s.unitStart))
	s.st.Snapshot(w)
}

// Restore rewinds the pipeline to a snapshot taken on an identically
// configured SPU running the same program. lookup resolves the current
// thread's registry index. The uop cache is keyed by the program, which
// is unchanged, so it survives; the horizon cache is invalidated — the
// next Tick recomputes it from the restored engine schedule, which can
// only shrink the first burst window, never change behaviour.
func (s *SPU) Restore(r *snap.Reader, lookup func(int32) *dta.Thread) error {
	for i := range s.regs {
		s.regs[i] = r.I64()
	}
	for i := range s.ready {
		s.ready[i] = sim.Cycle(r.I64())
	}
	for i := range s.prod {
		s.prod[i] = prodClass(r.U8())
	}
	curRef := r.I64()
	s.curKind = dta.WorkKind(r.Int())
	s.block = program.BlockKind(r.U8())
	s.pc = r.Int()
	s.ph = phase(r.U8())
	s.gapCause = stats.Cause(r.Int())
	s.gapLoc.Template = int32(r.I64())
	s.gapLoc.Block = r.U8()
	s.gapLoc.PC = int32(r.I64())
	s.accounted = sim.Cycle(r.I64())
	s.nextIssueAt = sim.Cycle(r.I64())
	s.resumeAt = sim.Cycle(r.I64())
	r.I64() // reserved
	s.readDst = r.U8()
	s.reqSeq = r.I64()
	s.fallocRd = r.U8()
	s.resp = readResp{held: r.Bool(), at: sim.Cycle(r.I64()), val: r.I64()}
	s.unitStart = sim.Cycle(r.I64())
	if err := s.st.Restore(r); err != nil {
		return err
	}
	s.cur, s.uops = nil, nil
	if curRef >= 0 {
		s.cur = lookup(int32(curRef))
		if s.cur == nil {
			return fmt.Errorf("spu%d: snapshot thread ref %d unresolved", s.spe, curRef)
		}
		if s.cur.Template < 0 || s.cur.Template >= len(s.prog.Templates) {
			return fmt.Errorf("spu%d: snapshot thread template %d out of range", s.spe, s.cur.Template)
		}
		s.uops = s.uopsFor(s.cur.Template, s.block)
		if s.pc > len(s.uops) {
			return fmt.Errorf("spu%d: snapshot pc %d beyond block of %d", s.spe, s.pc, len(s.uops))
		}
	}
	return r.Err()
}
