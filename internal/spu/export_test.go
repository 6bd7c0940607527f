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
// opened by a guard, and how many are loops without one.
func (c *Code) LoopRuns() (guarded, plain int) {
	for _, r := range c.runs {
		switch {
		case r.loop && r.guard:
			guarded++
		case r.loop:
			plain++
		}
	}
	return guarded, plain
}

// runView is a run entered at pc with its register lists and
// per-instruction stalls resolved, comparable across tables whatever
// order their runs were scheduled in.
type runView struct {
	end, last, stall int32
	guard, loop      bool
	in, out          []regOff
	stalls           []int32
}

func (c *Code) view(r run, pc int) runView {
	return runView{r.end, r.last, r.stall, r.guard, r.loop, c.regs[r.lo:r.mid], c.regs[r.mid:r.hi],
		c.stalls[r.sl : r.sl+r.end-int32(pc)]}
}

func (v runView) equal(w runView) bool {
	return v.end == w.end && v.last == w.last && v.stall == w.stall &&
		v.guard == w.guard && v.loop == w.loop &&
		slices.Equal(v.in, w.in) && slices.Equal(v.out, w.out) && slices.Equal(v.stalls, w.stalls)
}

// CheckTables compares every table decoded so far, and every run
// scheduled from one of its entries, with a decode and a schedule of the
// same block into new memory. It returns how many uops and runs the
// tables hold, and fails unless the runs' register lists and stalls
// fill the table's register and stall arenas exactly.
func (c *Code) CheckTables() (uops, runs int, err error) {
	regs, stalls := 0, 0
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
			wi := fresh.schedule(want.uops, want.runAt, pc)
			if (ri < 0) != (wi < 0) {
				return 0, 0, fmt.Errorf("template %d %s block: run entry %d at pc %d, a schedule into new memory %d", tmpl, blk, ri, pc, wi)
			}
			if ri < 0 {
				continue
			}
			got := c.view(c.runs[ri-1], pc)
			if w := fresh.view(fresh.runs[wi-1], pc); !got.equal(w) {
				return 0, 0, fmt.Errorf("template %d %s block: the run entered at pc %d is %+v, a schedule into new memory %+v",
					tmpl, blk, pc, got, w)
			}
			regs += len(got.in) + len(got.out)
			stalls += len(got.stalls)
			runs++
		}
		uops += len(d.uops)
	}
	if regs != len(c.regs) {
		return 0, 0, fmt.Errorf("the runs list %d registers, the register arena holds %d", regs, len(c.regs))
	}
	if stalls != len(c.stalls) {
		return 0, 0, fmt.Errorf("the runs list %d stalls, the stall arena holds %d", stalls, len(c.stalls))
	}
	return uops, runs, nil
}
