package spu

import (
	"repro/internal/dta"
	"repro/internal/isa"
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
//   - issue cycles whose instruction pair (pc, pc+1) — the furthest one
//     cycle can reach — is register-only (uopBurstReg): both sit in the
//     compute slot, so exactly the first issues and the second is never
//     probed;
//   - issue cycles whose pair mixes local-store accesses with compute
//     (uopBurstLS), when the bytes accessed are private (see private):
//     the local-store op dual-issues beside the compute op in program
//     order.
//
// Everything else — an access to bytes that are not private, frame
// stores, main memory, the LSE, the MFC, and all of a PF block, whose
// end notifies the LSE — ends the window and runs through issueCycle on
// the engine clock.
//
// The kernel is issueCycle + chargeCycle specialised to those cycles
// with the per-cycle bookkeeping hoisted: pc lives in a local, a cycle
// attributes to the profile row of the pc it started at, in one profile
// Add per charge site, and an issued instruction counts at its own pc.
// On entry s.accounted == t (the reference cycle before it was
// charged).
//
// Register-only issue cycles are mostly taken a run at a time. When pc
// enters a run of two or more of them (see run) whose guard, if any, is
// not taken, whose live-ins are all ready in time and whose last issue
// cycle falls before limit, one step executes the whole run from the
// schedule its Code worked out the first time a window reached that pc:
// the ALU ops in order, the results' ready cycles, the issue cycles and
// the run's own dependence stalls charged in bulk, each at the pc that
// per-cycle execution would charge it to, and a taken closing branch's
// bubble. When the run is a loop the step goes on in place, one
// iteration after another with a back edge's bubble between them,
// charged at the entry pc, for as long as the next iteration's last
// issue cycle falls before limit; the scoreboard is written once, from
// the entry of the last iteration. A guard taken at a later iteration's
// entry issues alone and ends the step; one taken where the step would
// begin issues per cycle. In every other case the cycles run one at a
// time as described above, which the run step reproduces exactly.
func (s *SPU) burst(t, limit sim.Cycle) sim.Cycle {
	uops, runAt, pc := s.uops, s.runAt, s.pc
	mask := uopBurstReg | uopBurstLS
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
		if f&uopBurstReg != 0 && runs {
			ri := runAt[pc]
			if ri == 0 {
				ri = s.code.schedule(uops, runAt, pc)
			}
			if ri > 0 {
				r := &s.code.runs[ri-1]
				us := uops[pc:r.end]
				g := &us[0].ins // the guard, if r has one
				if r.guard && isa.BranchTaken(g.Op, s.regs[g.Ra], s.regs[g.Rb]) {
					// The guard issues alone in the per-cycle path below.
				} else if t+sim.Cycle(r.last) >= limit {
					runs = false
				} else if s.runReady(r, t) {
					ops := us
					if r.guard {
						ops = us[1:] // the guard is not taken
					}
					entry := pc
					at := t       // the entry cycle of the iteration executed
					k := int64(0) // iterations executed
					for {
						k++
						last := at + sim.Cycle(r.last)
						t = last + 1
						if !s.execOps(ops) {
							pc = int(r.end) // below len(uops): r's last instruction has its pair bit
							break
						}
						pc = int(us[len(us)-1].ins.Imm) // inside the block (program.Validate)
						bubbleEnd = last + penalty
						s.nextIssueAt = bubbleEnd
						if !r.loop || bubbleEnd+sim.Cycle(r.last) >= limit {
							break
						}
						// The next iteration is ready on schedule (run.loop),
						// so it needs no runReady, and the scoreboard is
						// written once, from the last iteration executed.
						if r.guard && isa.BranchTaken(g.Op, s.regs[g.Ra], s.regs[g.Rb]) {
							// Its guard is taken: it issues alone and
							// leaves the loop.
							s.setOuts(r, at)
							s.chargeRun(row0, r, entry, k, k)
							prof.Add(spe, row0+entry, stats.CauseIssue, 1)
							prof.AddInstr(spe, row0+entry, 1)
							pc = int(g.Imm)
							t = bubbleEnd + 1
							bubbleEnd += penalty
							s.nextIssueAt = bubbleEnd
							continue cycle
						}
						at = bubbleEnd
					}
					s.chargeRun(row0, r, entry, k, k-1)
					s.setOuts(r, at)
					continue
				}
			}
		}
		if f == 0 {
			break
		}

		// A cycle whose local-store access would fault, or touches bytes
		// that are not private, is not simulated: the window ends before
		// any of it executes or is counted, and the reference cycle runs
		// it on the engine clock.
		lsFirst := u.flags&uopMem != 0
		if lsFirst {
			// Local-store op first. Its pair bit guarantees a successor
			// in this block; a compute op there joins the cycle when its
			// operands are ready (compute-slot ops are all register-only).
			addr, width, err := s.lsAddr(&u.ins, s.regs[u.ins.Ra], s.regs[u.ins.Rb])
			if err != nil || !s.private(addr, width) {
				break
			}
			prof.Add(spe, row0+pc, stats.CauseIssue, 1)
			prof.AddInstr(spe, row0+pc, 1)
			if err := s.lsAccess(t, &u.ins, addr); err != nil {
				s.Fault(err)
			}
			pc++
			u = &uops[pc]
			if blocked, _ := s.operandsBlocked(t, u); blocked || u.flags&uopMem != 0 {
				t++
				continue
			}
			prof.AddInstr(spe, row0+pc, 1)
		}

		// Compute slot: ALU op, branch or NOP at pc.
		ins := &u.ins
		rd := ins.Rd
		var v int64
		taken := false
		switch ins.Op {
		case isa.NOP:
			rd = isa.RegZero
		case isa.JMP, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			rd = isa.RegZero
			taken = isa.BranchTaken(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb])
		default:
			v = isa.EvalALU(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb], int64(ins.Imm))
		}
		var ls *uop // a local-store op that joins the compute op first
		var lsAddr int64
		if !lsFirst {
			if f&uopBurstReg == 0 && !taken {
				// Compute op first in a local-store pair, not a taken
				// branch (which ends the issue group): a local-store op
				// behind it takes the memory slot when its operands are
				// ready, the compute result forwarded at latency 0. Any
				// other memory-slot op there was proved unable to join at
				// decode (secondCannotJoin).
				if n := &uops[pc+1]; n.flags&uopMem != 0 && s.joins(t, n, rd, u.lat) {
					ra, rb := s.regs[n.ins.Ra], s.regs[n.ins.Rb]
					if rd != isa.RegZero && n.ins.Ra == rd {
						ra = v
					}
					if rd != isa.RegZero && n.ins.Rb == rd {
						rb = v
					}
					addr, width, err := s.lsAddr(&n.ins, ra, rb)
					if err != nil || !s.private(addr, width) {
						break
					}
					ls, lsAddr = n, addr
				}
			}
			prof.Add(spe, row0+pc, stats.CauseIssue, 1)
			prof.AddInstr(spe, row0+pc, 1)
		}
		pc++
		if taken {
			pc = int(ins.Imm)
			bubbleEnd = t + penalty
			s.nextIssueAt = bubbleEnd
		}
		if rd != isa.RegZero {
			s.regs[rd] = v
			s.ready[rd] = t + sim.Cycle(u.lat)
			s.prod[rd] = prodALU
		}
		if ls != nil {
			prof.AddInstr(spe, row0+pc, 1)
			if err := s.lsAccess(t, &ls.ins, lsAddr); err != nil {
				s.Fault(err)
			}
			pc++
		}
		t++
		if pc >= len(uops) {
			// The second instruction of the pair was the block's last:
			// the transition to the next block belongs to its cycle.
			s.pc = pc
			ok := s.skipEmptyBlocks(t - 1)
			uops, runAt, pc, row0 = s.uops, s.runAt, s.pc, s.row0
			if !ok {
				break
			}
		}
	}

	s.pc = pc
	s.accounted = t
	return t
}

// joins reports whether the memory-slot op n has its operands ready at
// t behind a compute op that writes rd (RegZero: nothing) with latency
// lat in the same cycle — what the scoreboard says once that op issued.
func (s *SPU) joins(t sim.Cycle, n *uop, rd uint8, lat int32) bool {
	for _, r := range n.srcs[:n.nsrc] {
		if r == rd && rd != isa.RegZero {
			if lat > 0 {
				return false
			}
		} else if s.ready[r] > t {
			return false
		}
	}
	return true
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

// chargeRun charges k iterations of run r, entered at pc of the block
// whose profile row is row0, and edges back edges between or after them
// to the guest profile: each instruction's issue cycle, its own
// dependence stall and its k executions at its pc, and the back edges'
// bubbles at the entry pc, where per-cycle execution charges each of
// them. Runs never step in a PF block, so no cause needs folding
// (causeFor).
func (s *SPU) chargeRun(row0 int, r *run, pc int, k, edges int64) {
	prof, spe, row := s.Prof, s.spe, row0+pc
	for i, stall := range s.code.stalls[r.sl : r.sl+r.end-int32(pc)] {
		prof.Add(spe, row+i, stats.CauseIssue, k)
		prof.Add(spe, row+i, stats.CauseDepStall, k*int64(stall))
		prof.AddInstr(spe, row+i, k)
	}
	prof.Add(spe, row, stats.CauseBubble, edges*int64(s.cfg.BranchPenalty))
}

// run is the static issue schedule of a run: the uopBurstReg
// instructions from an entry pc up to the first branch after the entry
// or the last one whose pair bit is set, whichever comes first, at
// least two of them. The entry may be a conditional branch, the run's
// guard; the run is the path on which the guard is not taken. Each
// instruction issues alone in its cycle (its pair partner shares the
// compute slot or cannot join), and with no branch predictor, no
// reordering and nothing outside the pipeline involved, the cycle it
// issues in depends only on when its source registers become ready.
// Registers the run writes before reading are ready on a schedule the
// run itself fixes; the others, the live-ins, are its only dynamic
// input. When every live-in is ready by the first cycle its first
// reader is considered, no live-in ever stalls the run, and the run
// issues on the schedule below, offsets counted from the cycle the
// entry instruction issues in.
//
// A run is a loop when its closing branch targets its entry and the
// next iteration's live-ins are ready on schedule whenever this one's
// were: each live-in the run writes is ready, counted from this entry,
// by last+1+BranchPenalty (the next entry) plus its own offset. Live-ins
// the run does not write only grow more ready.
type run struct {
	end   int32 // pc past the last instruction
	last  int32 // issue offset of the last instruction
	stall int32 // cycles spent waiting on the run's own results (prodALU)
	// c.stalls[sl:] holds each instruction's share of stall, one per
	// instruction from the entry to end.
	sl int32
	// c.regs[lo:mid] are the live-ins, each with the offset of the first
	// cycle its first reader is considered; c.regs[mid:hi] the registers
	// written, each with the offset its last write is ready at.
	lo, mid, hi int32
	guard       bool // the entry is a conditional branch, not taken on the run
	loop        bool // a taken closing branch re-enters the run on schedule
}

// regOff is a register with a cycle offset into its run.
type regOff struct {
	reg uint8
	off int32
}

// schedule works out the run entered at pc of the block whose tables are
// uops and runAt (uops[pc] carries uopBurstReg), records it, and returns
// its runAt entry: -1 when the run would be a lone instruction, whose
// step would save nothing over issuing it per cycle, or would open with
// a JMP.
func (c *Code) schedule(uops []uop, runAt []int32, pc int) int32 {
	if uops[pc].ins.Op == isa.JMP || uops[pc+1].flags&uopBurstReg == 0 {
		runAt[pc] = -1
		return -1
	}
	r := run{lo: int32(len(c.regs)), sl: int32(len(c.stalls)), guard: uops[pc].flags&uopBranch != 0}
	outs := c.outs[:0] // registers written so far, each with its last write's ready offset
	at := int32(0)     // the cycle the current instruction is first considered
	i := pc
	for ; ; i++ {
		u := &uops[i]
		issue := at
		for _, src := range u.srcs[:u.nsrc] {
			if src == isa.RegZero {
				continue
			}
			if k := regIndex(outs, src); k >= 0 {
				issue = max(issue, outs[k].off)
			} else if regIndex(c.regs[r.lo:], src) < 0 {
				c.regs = append(c.regs, regOff{reg: src, off: at})
			}
		}
		r.stall += issue - at
		c.stalls = append(c.stalls, issue-at)
		if rd := u.ins.Rd; u.flags&uopBranch == 0 && u.ins.Op != isa.NOP && rd != isa.RegZero {
			if k := regIndex(outs, rd); k >= 0 {
				outs[k].off = issue + u.lat
			} else {
				outs = append(outs, regOff{reg: rd, off: issue + u.lat})
			}
		}
		r.last = issue
		at = issue + 1
		if u.flags&uopBranch != 0 && i > pc || uops[i+1].flags&uopBurstReg == 0 {
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
	c.runs = append(c.runs, r)
	runAt[pc] = int32(len(c.runs))
	return runAt[pc]
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
// from t.
func (s *SPU) runReady(r *run, t sim.Cycle) bool {
	for _, in := range s.code.regs[r.lo:r.mid] {
		if s.ready[in.reg] > t+sim.Cycle(in.off) {
			return false
		}
	}
	return true
}

// execOps executes the ALU ops of a run in order, past its guard, and
// reports whether its closing branch, if any, is taken.
func (s *SPU) execOps(us []uop) (taken bool) {
	for i := range us {
		ins := &us[i].ins
		switch {
		case us[i].flags&uopBranch != 0:
			taken = isa.BranchTaken(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb])
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
		s.prod[out.reg] = prodALU
	}
}
