package spu

import (
	"fmt"
	"slices"

	"repro/internal/program"
)

// Access to the shared decode table for the external tests.

// DecodedCode returns the decode table the SPU reads.
func (s *SPU) DecodedCode() *Code { return s.code }

// Arena returns the uops carved from the table's arena so far.
func (c *Code) Arena() []uop { return c.arena }

// Runs returns how many runs have been scheduled so far.
func (c *Code) Runs() int { return len(c.runs) }

// LoopRuns returns how many of the runs scheduled so far are loops
// opened by a guard, how many are loops without one, and how many of
// either kind access the local store.
func (c *Code) LoopRuns() (guarded, plain, ls int) {
	for _, r := range c.runs {
		switch {
		case r.loop && r.guard:
			guarded++
		case r.loop:
			plain++
		}
		if r.loop && r.ls >= 0 {
			ls++
		}
	}
	return guarded, plain, ls
}

// RunSteps returns the iterations that run steps of the run entered at
// pc of template tmpl's block blk took and ChargeRuns has not charged
// yet: 0 when no run is scheduled there.
func (s *SPU) RunSteps(tmpl int, blk program.BlockKind, pc int) int64 {
	runAt := s.code.tab[tmpl*int(program.NumBlocks)+int(blk)].runAt
	if pc >= len(runAt) || runAt[pc] <= 0 || int(runAt[pc]) > len(s.steps) {
		return 0
	}
	return s.steps[runAt[pc]-1]
}

// runView is a run entered at pc with its register lists and
// per-instruction stalls resolved, comparable across tables whatever
// order their runs were scheduled in.
type runView struct {
	pc, end, row, last, ls, lsEnd int32
	guard, loop                   bool
	in, out                       []regOff
	costs                         []cost
}

func (c *Code) view(r run) runView {
	return runView{r.pc, r.end, r.row, r.last, r.ls, r.lsEnd, r.guard, r.loop, c.regs[r.lo:r.mid], c.regs[r.mid:r.hi],
		c.costs[r.sl : r.sl+r.end-r.pc]}
}

func (v runView) equal(w runView) bool {
	return v.pc == w.pc && v.end == w.end && v.row == w.row && v.last == w.last && v.ls == w.ls && v.lsEnd == w.lsEnd &&
		v.guard == w.guard && v.loop == w.loop &&
		slices.Equal(v.in, w.in) && slices.Equal(v.out, w.out) && slices.Equal(v.costs, w.costs)
}

// CheckTables compares every table of the SPU's Code decoded so far, and
// every run scheduled from one of its entries, with a decode and a
// schedule of the same block into new memory. It returns how many uops
// and runs the tables hold, and fails unless the runs' register lists
// and costs fill the table's register and cost arenas exactly.
func (s *SPU) CheckTables() (uops, runs int, err error) {
	c, lsLat := s.code, s.lsLat
	regs, costs := 0, 0
	for i, d := range c.tab {
		if d.uops == nil {
			continue
		}
		tmpl, blk := i/int(program.NumBlocks), program.BlockKind(i%int(program.NumBlocks))
		fresh := NewCode(c.cfg)
		want := fresh.decode(c.prog.Templates[tmpl].Blocks[blk])
		if !slices.Equal(d.uops, want.uops) {
			return 0, 0, fmt.Errorf("template %d %s block differs from a decode into new memory", tmpl, blk)
		}
		for pc, ri := range d.runAt {
			if ri == 0 {
				continue
			}
			wi := fresh.schedule(want.uops, want.runAt, pc, s.Prof.Row(tmpl, blk)+pc, lsLat)
			if (ri < 0) != (wi < 0) {
				return 0, 0, fmt.Errorf("template %d %s block: run entry %d at pc %d, a schedule into new memory %d", tmpl, blk, ri, pc, wi)
			}
			if ri < 0 {
				continue
			}
			got := c.view(c.runs[ri-1])
			if w := fresh.view(fresh.runs[wi-1]); !got.equal(w) {
				return 0, 0, fmt.Errorf("template %d %s block: the run entered at pc %d is %+v, a schedule into new memory %+v",
					tmpl, blk, pc, got, w)
			}
			regs += len(got.in) + len(got.out)
			costs += len(got.costs)
			runs++
		}
		uops += len(d.uops)
	}
	if regs != len(c.regs) {
		return 0, 0, fmt.Errorf("the runs list %d registers, the register arena holds %d", regs, len(c.regs))
	}
	if costs != len(c.costs) {
		return 0, 0, fmt.Errorf("the runs list %d costs, the cost arena holds %d", costs, len(c.costs))
	}
	return uops, runs, nil
}
