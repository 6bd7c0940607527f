package spu

import (
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/ls"
	"repro/internal/sim"
	"repro/internal/stats"
)

// burst is the fused kernel: it simulates the pipeline cycles [t, limit)
// that lie ahead of the engine clock, for as long as nothing outside the
// pipeline can observe them or be observed by them, and returns the
// first cycle it did not simulate. Three kinds of cycle qualify:
//
//   - bubbles (dispatch refill, branch penalty, MFC channel busy) and
//     scoreboard stalls, in any block and before any instruction: the
//     SPU accepts no deliveries in phRun and the scoreboard is
//     pipeline-local, so nothing in the machine can change the outcome
//     before the bubble or the producer's ready cycle ends. They are
//     charged in bulk, cut at limit; re-checking at the end reproduces
//     single-step behaviour exactly (a later source may block in turn);
//   - the cycles of a run step (below), the only way the window executes
//     a local-store op, when the bytes accessed are private (see
//     private);
//   - outside a run step, a cycle whose register-only instruction
//     issues alone (see alone), which issueCycle, the reference cycle,
//     simulates: a cycle the kernel takes decides nothing about dual
//     issue that the cycle itself does not.
//
// Everything else — a local-store op outside a run step, an access to
// bytes that are not private, frame stores, main memory, the LSE, the
// MFC, and all of a PF block, whose end notifies the LSE — ends the
// window and runs through issueCycle on the engine clock. A cycle that
// would move to the next block is never alone and no run holds a
// block's last instruction, so the window never crosses a block end.
// A cycle attributes to the profile row of the pc it started at, in one
// profile Add per charge site. On entry s.accounted == t (the reference
// cycle before it was charged).
//
// Issue cycles are mostly taken a run at a time. When pc enters a run
// of two or more instructions (see run) whose guard, if any, is not
// taken, whose live-ins are all ready in time, whose local-store
// accesses are all private at the entry registers and whose last issue
// cycle falls before limit, one step executes the whole run from the
// schedule its Code worked out the first time a window reached that pc:
// the ops in program order (ALU ops through isa.EvalALU, local-store
// ops through the store), the results' ready cycles and a taken closing
// branch's bubble. When the run is a loop the step goes on in place,
// one iteration after another with a back edge's bubble between them,
// for as long as the next iteration's guard, if any, is not taken, its
// last issue cycle falls before limit and its local-store accesses,
// resolved from the registers at its entry, are private; the scoreboard
// is written once, from the entry of the last iteration, and so is the
// local-store port. A guard taken where a step would begin, or at a
// later iteration's entry, issues alone, one cycle. A step's profile
// charge is O(1): the back edges' bubbles in one Add at the entry pc,
// and its iterations added to the run's counter (steps), which
// ChargeRuns expands into the issue cycles, waits and executions
// per-cycle execution charges at each pc.
func (s *SPU) burst(t, limit sim.Cycle) sim.Cycle {
	uops, runAt, pc := s.uops, s.runAt, s.pc
	mask := uopReg | uopLS
	if s.curKind != dta.WorkThread {
		mask = 0 // PF block: bubbles and stalls only
	}
	prof, spe, row0 := s.Prof, s.spe, s.row0
	// The first run that does not fit before limit ends run steps for
	// the window, whose rest is shorter than that run.
	runs := true
	bubbleEnd := s.nextIssueAt
	penalty := 1 + sim.Cycle(s.cfg.BranchPenalty)
	s.liveOK = false

cycle:
	for t < limit {
		if t < bubbleEnd {
			end := min(bubbleEnd, limit)
			prof.Add(spe, row0+pc, s.causeFor(stats.CauseBubble), int64(end-t))
			t = end
			continue
		}
		u := &uops[pc]
		// Unused source slots name RegZero, which is always ready.
		if s.ready[u.srcs[0]] > t || s.ready[u.srcs[1]] > t || s.ready[u.srcs[2]] > t {
			for _, r := range u.srcs {
				if s.ready[r] > t {
					end := min(s.ready[r], limit)
					prof.Add(spe, row0+pc, s.causeFor(stallCause(s.prod[r])), int64(end-t))
					t = end
					continue cycle
				}
			}
		}
		f := u.flags & mask
		if f != 0 && runs {
			ri := runAt[pc]
			if ri == 0 {
				ri = s.code.schedule(uops, runAt, pc, row0+pc, s.lsLat)
			}
			if ri > 0 {
				r := &s.code.runs[ri-1]
				us := uops[pc:r.end]
				g := &us[0].ins // the guard, if r has one
				if r.guard && isa.BranchTaken(g.Op, s.regs[g.Ra], s.regs[g.Rb]) {
					// The guard issues alone below.
				} else if t+sim.Cycle(r.last) >= limit {
					runs = false
				} else if s.runReady(r, t) && s.runPrivate(r, us) {
					ops := us
					if r.guard {
						ops = us[1:] // the guard is not taken
					}
					at := t       // the entry cycle of the iteration executed
					k := int64(0) // iterations executed
					for {
						k++
						last := at + sim.Cycle(r.last)
						t = last + 1
						if !s.execOps(ops) {
							pc = int(r.end) // below len(uops): r never holds the block's last instruction
							break
						}
						pc = int(us[len(us)-1].ins.Imm) // inside the block (program.Validate)
						bubbleEnd = last + penalty
						s.nextIssueAt = bubbleEnd
						// The next iteration is ready on schedule (run.loop),
						// so it needs no runReady, and the scoreboard is
						// written once, from the last iteration executed.
						// One whose guard is taken, or whose accesses are not
						// private, is left to the per-cycle path.
						if !r.loop || bubbleEnd+sim.Cycle(r.last) >= limit ||
							r.guard && isa.BranchTaken(g.Op, s.regs[g.Ra], s.regs[g.Rb]) || !s.runPrivate(r, us) {
							break
						}
						at = bubbleEnd
					}
					s.setOuts(r, at)
					s.endRun(ri, at, k)
					continue
				}
			}
		}
		// A register-only instruction whose cycle issues it alone: a
		// successor in the compute slot waits for the next cycle, and
		// alone decides the rest.
		if f&uopReg == 0 || (pc+1 == len(uops) || uops[pc+1].flags&uopMem != 0) && !s.alone(pc, t) {
			break
		}
		// The reference cycle, charged at the pc it starts at.
		s.pc = pc
		cause, _ := s.issueCycle(t)
		prof.Add(spe, row0+pc, cause, 1)
		pc, bubbleEnd = s.pc, s.nextIssueAt
		t++
	}

	s.pc = pc
	s.accounted = t
	return t
}

// alone reports whether the register-only instruction at pc, whose
// operands are ready at t and whose successor, if any, sits in the
// memory slot (burst tests the compute slot inline), issues alone in
// cycle t: it is a taken branch, which ends its issue group and whose
// target is in the block (program.Validate), or its successor in the
// block waits on an operand at t, counting the instruction's own result.
// Otherwise issueCycle could issue the successor in the same cycle, or,
// past the block's last instruction, move to the next block.
func (s *SPU) alone(pc int, t sim.Cycle) bool {
	u := &s.uops[pc]
	if u.flags&uopBranch != 0 && isa.BranchTaken(u.ins.Op, s.regs[u.ins.Ra], s.regs[u.ins.Rb]) {
		return true
	}
	if pc+1 == len(s.uops) {
		return false
	}
	n := &s.uops[pc+1]
	rd := u.ins.Rd // the register u writes: none for a branch or a NOP
	if u.flags&uopBranch != 0 || u.ins.Op == isa.NOP {
		rd = isa.RegZero
	}
	for _, r := range n.srcs {
		ready := s.ready[r]
		if r == rd && r != isa.RegZero {
			ready = t + sim.Cycle(u.lat) // u's own result
		}
		if ready > t {
			return true
		}
	}
	return false
}

// private reports whether the width bytes at addr lie inside the store,
// so that an access to them cannot fault, and are this SPU's alone until
// the window ends, so that an access to them at a cycle ahead of the
// engine clock reads and writes what it would on the clock. Besides the
// SPU only two components touch its local store (see mfc.Engine.Tick and
// dta.LSE.Tick):
//
//   - the MFC, inside the range of a live command. Only this SPU
//     enqueues commands, and MFCGET and MFCPUT end every window, so no
//     range is added before the window ends;
//   - the LSE, inside the frame region, and only into a frame whose SC
//     is above 0. The running thread's SC is 0, so its own frame is
//     private.
//
// The kernel leans on the block discipline (program.legalIn): no
// local-store op is legal in PS, the only block where FFREE is, so the
// thread holds its frame, and its slot, at every local-store access.
// The live ranges are read at most once per window.
func (s *SPU) private(addr, width int64) bool {
	// addr+width could overflow
	if addr < 0 || addr > int64(s.store.Size())-width {
		return false
	}
	if lo, hi := s.lse.FrameRegion(); addr < hi && lo < addr+width {
		own := s.lse.FrameAddr(s.cur.Slot)
		if addr < own || addr+width > own+dta.FrameBytes {
			return false
		}
	}
	if !s.liveOK {
		s.live, s.liveOK = s.dma.LiveRanges(s.live[:0]), true
	}
	for _, r := range s.live {
		if addr < r.Hi && r.Lo < addr+width {
			return false
		}
	}
	return true
}

// endRun ends a run step of k iterations of the run at runAt entry ri,
// the last one entered at cycle at: it books the local-store port as
// that iteration's last access did, charges the bubbles of the k-1 back
// edges between them at the entry pc, where per-cycle execution charges
// them, and adds k to the run's counter, which ChargeRuns expands. The
// bubble after the last iteration is the window's to charge.
func (s *SPU) endRun(ri int32, at sim.Cycle, k int64) {
	r := &s.code.runs[ri-1]
	if r.ls >= 0 {
		// One memory-slot op issues per cycle and an access holds the
		// port one cycle (lsLat), so the port is free at every access
		// and only the last one's booking remains.
		s.store.Access(ls.PortSPU, at+sim.Cycle(r.ls), 8)
	}
	if int(ri) > len(s.steps) {
		s.steps = append(s.steps, make([]int64, len(s.code.runs)-len(s.steps))...)
	}
	s.steps[ri-1] += k
	if k > 1 {
		s.Prof.Add(s.spe, int(r.row), stats.CauseBubble, (k-1)*int64(s.cfg.BranchPenalty))
	}
}

// ChargeRuns charges the run steps' iterations counted so far to the
// guest profile and zeroes the counts: per iteration, each
// instruction's issue cycle, its own waits by cause and one execution at
// its pc, where per-cycle execution charges each of them. Runs never
// step in a PF block, so no cause needs folding (causeFor). Finalize
// calls it; so does any reader of the profile before then.
func (s *SPU) ChargeRuns() {
	prof, spe := s.Prof, s.spe
	for i, k := range s.steps {
		if k == 0 {
			continue
		}
		r := &s.code.runs[i]
		for j, c := range s.code.costs[r.sl : r.sl+r.end-r.pc] {
			row := int(r.row) + j
			prof.Add(spe, row, stats.CauseIssue, k*int64(c.issue))
			prof.Add(spe, row, stats.CauseDepStall, k*int64(c.dep))
			prof.Add(spe, row, stats.CauseLSWait, k*int64(c.ls))
			prof.AddInstr(spe, row, k)
		}
		s.steps[i] = 0
	}
}

// run is the static issue schedule of a run: the instructions from an
// entry pc up to the first branch after the entry, or up to the last one
// that can end the run (see lay), at least two of them and never the
// block's last. Each is register-only compute, a branch, or a
// local-store access (LSRD*, LSWR*, LOAD*) whose address registers no
// earlier instruction of the run writes, so that each iteration's
// addresses are known at its entry (admits). The entry may be a
// conditional branch, the run's guard; the run is the path on which the
// guard is not taken. With no branch predictor, no reordering, a
// local-store port that is free at every access (lsLat) and nothing
// outside the pipeline involved, the cycle an instruction issues in, and
// whether it pairs with its predecessor, depends only on when its
// source registers become ready. Registers the run writes before reading
// are ready on a schedule the run itself fixes; the others, the
// live-ins, are its only dynamic input. When every live-in is ready by
// the first cycle its first reader is considered, or by that reader's
// issue when the reader waits that long on the run's results of the
// live-in's producer class (see regOff), no live-in ever moves an issue
// cycle or a wait's cause, and the run issues on the schedule below,
// offsets counted from the cycle the entry instruction issues in.
//
// A run is a loop when its closing branch targets its entry and the
// next iteration's live-ins are ready on schedule whenever this one's
// were: each live-in the run writes is ready, counted from this entry,
// by last+1+BranchPenalty (the next entry) plus its own offset, not its
// late one. Live-ins the run does not write are ready by this
// iteration's last issue, before the next entry.
type run struct {
	pc, end int32 // the entry pc and the pc past the last instruction
	row     int32 // the profile row of the entry
	last    int32 // issue offset of the last instruction
	ls      int32 // issue offset of the last local-store op, or -1: none
	lsEnd   int32 // instructions from the entry to past the last local-store op
	// c.costs[sl:] holds each instruction's cycles, one per instruction
	// from the entry to end.
	sl int32
	// c.regs[lo:mid] are the live-ins, each with the offset of the first
	// cycle its first reader is considered; c.regs[mid:hi] the registers
	// written, each with the offset its last write is ready at and that
	// write's producer class.
	lo, mid, hi int32
	guard       bool // the entry is a conditional branch, not taken on the run
	loop        bool // a taken closing branch re-enters the run on schedule
}

// cost is what per-cycle execution charges at one instruction's pc per
// iteration of its run: its issue cycle (0 when it pairs as the second
// of its cycle, whose cycle is charged at the first's pc) and the cycles
// it waits on results of the run's ALU ops and of its local-store ops.
type cost struct{ issue, dep, ls int32 }

// regOff is a register with a cycle offset into its run and, for a
// register the run writes, the class of its last producer. A live-in
// whose first reader waits on the run's results of one class, and so
// does not pair, may be ready as late as that reader's issue offset
// (late) when its own producer is of that class (prod): the reader's
// wait then takes the same cycles, charged to the same cause. For any
// other live-in late is off.
type regOff struct {
	reg       uint8
	prod      prodClass
	off, late int32
}

// schedule works out the run entered at pc of the block whose tables are
// uops and runAt, at profile row row, for local-store results ready
// lsLat cycles after their issue (-1: no local-store op joins a run),
// records it, and returns its runAt entry: -1 when uops[pc] may not
// open a run (admits), or is a JMP, or the run would be a lone
// instruction, whose step would save nothing over issuing it per cycle.
func (c *Code) schedule(uops []uop, runAt []int32, pc, row int, lsLat int32) int32 {
	if pc+2 >= len(uops) || uops[pc].ins.Op == isa.JMP || !admits(&uops[pc], nil, lsLat) {
		runAt[pc] = -1
		return -1
	}
	// No run holds the block's last instruction: the cycle after it
	// moves to another block.
	r, safe := c.lay(uops, pc, len(uops)-1, lsLat)
	if int(r.end) != safe {
		// The run cannot end at its last instruction: cut it back to
		// the last one it can end at, scheduled afresh.
		c.regs, c.costs = c.regs[:r.lo], c.costs[:r.sl]
		if safe < pc+2 {
			runAt[pc] = -1
			return -1
		}
		r, _ = c.lay(uops, pc, safe, lsLat)
	}
	r.row = int32(row)
	c.runs = append(c.runs, r)
	runAt[pc] = int32(len(c.runs))
	return runAt[pc]
}

// lay schedules the longest run entered at pc that ends before stop,
// appending its live-ins, results and costs to the arenas, and returns
// it with the end of its longest prefix of two or more instructions that
// can end a run (0: none). A run can end at an instruction when the next
// one cannot issue in the same cycle: the instruction pairs as the
// second of its cycle, or the next one competes for its slot or waits
// on a result of the run at that cycle. Otherwise the next one would
// pair with it as issueCycle pairs them whenever its live-ins are ready,
// inside the run's last cycle.
func (c *Code) lay(uops []uop, pc, stop int, lsLat int32) (run, int) {
	r := run{pc: int32(pc), ls: -1, lo: int32(len(c.regs)), sl: int32(len(c.costs)),
		guard: uops[pc].flags&uopBranch != 0}
	outs := c.outs[:0] // registers written so far, each with its last write's ready offset
	at := int32(0)     // the cycle the current instruction is first considered in as the first of its cycle
	probe := false     // ... or the cycle before, as the second of its predecessor's
	paired := false    // the current instruction issued as the second of its cycle
	safe := 0
	i := pc
	for ; ; i++ {
		u := &uops[i]
		first := at
		if probe {
			first = at - 1
		}
		own := len(c.regs) // the live-ins u reads first start here
		for _, src := range u.srcs[:u.nsrc] {
			if src != isa.RegZero && regIndex(outs, src) < 0 && regIndex(c.regs[r.lo:], src) < 0 {
				c.regs = append(c.regs, regOff{reg: src, off: first, late: first})
			}
		}
		issue, cs := at, cost{issue: 1}
		if paired = probe && waitOn(outs, u, first) < 0; paired {
			issue, cs.issue = first, 0
		} else {
			// Wait on one source at a time, the first not ready in
			// operand order, as the scoreboard does.
			for k := waitOn(outs, u, issue); k >= 0; k = waitOn(outs, u, issue) {
				if outs[k].prod == prodLS {
					cs.ls += outs[k].off - issue
				} else {
					cs.dep += outs[k].off - issue
				}
				issue = outs[k].off
			}
		}
		if (cs.ls == 0) != (cs.dep == 0) {
			// u waits on the run's results of one producer class until
			// issue: a live-in of that class may be ready as late, its
			// cycles charged to the same cause at the same pc.
			p := prodALU
			if cs.ls > 0 {
				p = prodLS
			}
			for k := own; k < len(c.regs); k++ {
				c.regs[k].prod, c.regs[k].late = p, issue
			}
		}
		c.costs = append(c.costs, cs)
		mem := u.flags&uopMem != 0
		if rd := u.ins.Rd; u.flags&uopBranch == 0 && u.ins.Op != isa.NOP && rd != isa.RegZero && !isa.InfoOf(u.ins.Op).Store {
			o := regOff{reg: rd, prod: prodALU, off: issue + u.lat}
			if mem {
				o.prod, o.off = prodLS, issue+lsLat
			}
			if k := regIndex(outs, rd); k >= 0 {
				outs[k] = o
			} else {
				outs = append(outs, o)
			}
		}
		if mem {
			r.ls, r.lsEnd = issue, int32(i-pc+1)
		}
		r.last = issue
		// The next instruction is probed in this cycle when this one
		// issued first in it and they sit in different slots.
		n := &uops[i+1]
		probe = !paired && mem != (n.flags&uopMem != 0)
		at = issue + 1
		if i > pc && (!probe || waitOn(outs, n, issue) >= 0) {
			safe = i + 1
		}
		if u.flags&uopBranch != 0 && i > pc || i+1 == stop || !admits(n, outs, lsLat) {
			break
		}
	}
	r.end = int32(i + 1)
	if u := &uops[i]; u.flags&uopBranch != 0 && int(u.ins.Imm) == pc {
		r.loop = true
		next := r.last + 1 + int32(c.cfg.BranchPenalty)
		for _, in := range c.regs[r.lo:] {
			if k := regIndex(outs, in.reg); k >= 0 && outs[k].off > next+in.off {
				r.loop = false
			}
		}
	}
	r.mid = int32(len(c.regs))
	c.regs = append(c.regs, outs...)
	r.hi = int32(len(c.regs))
	c.outs = outs
	return r, safe
}

// admits reports whether u may join a run whose results so far are
// outs: it is register-only or, if it accesses the local store, the
// accesses are timed (lsLat >= 0) and no earlier instruction of the run
// writes its address registers.
func admits(u *uop, outs []regOff, lsLat int32) bool {
	if u.flags&uopReg != 0 {
		return true
	}
	if u.flags&uopLS == 0 {
		return false
	}
	if lsLat < 0 || regIndex(outs, u.ins.Ra) >= 0 {
		return false
	}
	switch u.ins.Op {
	case isa.LSRDX, isa.LSRDX8, isa.LSWRX, isa.LSWRX8:
		return regIndex(outs, u.ins.Rb) < 0
	}
	return true
}

// waitOn returns the index in outs of the first source of u, in operand
// order, that the run writes and that is not ready by offset at, or -1.
func waitOn(outs []regOff, u *uop, at int32) int {
	for _, src := range u.srcs[:u.nsrc] {
		if k := regIndex(outs, src); k >= 0 && outs[k].off > at {
			return k
		}
	}
	return -1
}

// regIndex returns the index of reg's entry in l, or -1.
func regIndex(l []regOff, reg uint8) int {
	for k := range l {
		if l[k].reg == reg {
			return k
		}
	}
	return -1
}

// runReady reports whether every live-in of r is ready by its offset
// from t, or by its late offset when its producer is of the class its
// first reader waits on (see regOff).
func (s *SPU) runReady(r *run, t sim.Cycle) bool {
	for _, in := range s.code.regs[r.lo:r.mid] {
		if at := s.ready[in.reg]; at > t+sim.Cycle(in.off) && (at > t+sim.Cycle(in.late) || s.prod[in.reg] != in.prod) {
			return false
		}
	}
	return true
}

// runPrivate resolves the local-store accesses of the run us from the
// registers at an iteration's entry into c.addrs, in program order, and
// reports whether every one is to private bytes (see private), so that
// the iteration may run ahead of the engine clock.
func (s *SPU) runPrivate(r *run, us []uop) bool {
	if r.ls < 0 {
		return true
	}
	addrs := s.code.addrs[:0]
	for i := range us[:r.lsEnd] {
		if us[i].flags&uopMem != 0 {
			ins := &us[i].ins
			addr, width, err := s.lsAddr(ins, s.regs[ins.Ra], s.regs[ins.Rb])
			if err != nil || !s.private(addr, width) {
				return false
			}
			addrs = append(addrs, addr)
		}
	}
	s.code.addrs = addrs
	return true
}

// execOps executes the ops of a run in program order, past its guard,
// its local-store accesses at c.addrs (runPrivate), and reports whether
// its closing branch, if any, is taken.
func (s *SPU) execOps(us []uop) (taken bool) {
	addrs := s.code.addrs
	for i := range us {
		ins := &us[i].ins
		switch {
		case us[i].flags&uopBranch != 0:
			taken = isa.BranchTaken(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb])
		case us[i].flags&uopMem != 0:
			s.lsData(ins, addrs[0]) // private, so inside the store
			addrs = addrs[1:]
		case ins.Op != isa.NOP && ins.Rd != isa.RegZero:
			s.regs[ins.Rd] = isa.EvalALU(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb], int64(ins.Imm))
		}
	}
	return taken
}

// setOuts writes the scoreboard entries of the registers r writes, for
// an iteration of r entered at t.
func (s *SPU) setOuts(r *run, t sim.Cycle) {
	for _, out := range s.code.regs[r.mid:r.hi] {
		s.ready[out.reg] = t + sim.Cycle(out.off)
		s.prod[out.reg] = out.prod
	}
}
