package spu

import (
	"fmt"

	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/ls"
	"repro/internal/program"
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
//     (uopBurstLS), while t is below the quiescence horizon: the
//     local-store op dual-issues beside the compute op in program order.
//
// Everything else — frame stores, main memory, the LSE, the MFC, and
// all of a PF block, whose end notifies the LSE — ends the window and
// runs through issueCycle on the engine clock.
//
// The kernel is issueCycle + chargeCycle specialised to those cycles
// with the per-cycle bookkeeping hoisted: pc and the issue counters live
// in locals and reach s.st once per window, and a cycle attributes to
// the pc it started at, per charge site when the profiler is on. On
// entry s.accounted == t (the reference cycle before it was charged).
func (s *SPU) burst(t, limit sim.Cycle) sim.Cycle {
	uops, pc := s.uops, s.pc
	mask := uopBurstReg | uopBurstLS
	if s.curKind != dta.WorkThread {
		mask = 0 // PF block: bubbles and stalls only
	}
	prof := s.Prof
	var loc stats.Loc
	if prof != nil {
		loc = s.curLoc()
	}
	bubbleEnd := s.nextIssueAt
	penalty := 1 + sim.Cycle(s.cfg.BranchPenalty)
	var hzn sim.Cycle
	hznRead := false
	// Cycle counters of the window: issue cycles, bubbles, and scoreboard
	// stalls by the class of the producer waited for.
	var cycles, bubbles int64
	var stalls [prodMFC + 1]int64
	var instrs int64
	var mix [iclsLSDir + 1]int64 // local-store ops issued, by instruction class

cycle:
	for t < limit {
		if t < bubbleEnd {
			end := min(bubbleEnd, limit)
			bubbles += int64(end - t)
			if prof != nil {
				loc.PC = int32(pc)
				prof.Add(loc, s.causeFor(stats.CauseBubble), int64(end-t))
			}
			t = end
			continue
		}
		u := &uops[pc]
		// Unused source slots name RegZero, which is always ready.
		if s.ready[u.srcs[0]] > t || s.ready[u.srcs[1]] > t || s.ready[u.srcs[2]] > t {
			for _, r := range u.srcs {
				if s.ready[r] > t {
					end := min(s.ready[r], limit)
					stalls[s.prod[r]] += int64(end - t)
					if prof != nil {
						loc.PC = int32(pc)
						prof.Add(loc, s.causeFor(stallCause(s.prod[r])), int64(end-t))
					}
					t = end
					continue cycle
				}
			}
		}
		f := u.flags & mask
		if f&uopBurstReg == 0 {
			if f == 0 {
				break
			}
			if !hznRead {
				hzn, hznRead = s.lsHorizon(), true
			}
			if t >= hzn {
				break
			}
		}
		if prof != nil {
			loc.PC = int32(pc)
			prof.Add(loc, stats.CauseIssue, 1)
		}
		cycles++
		instrs++

		// probe: the memory slot is still free for a second instruction.
		probe := f&uopBurstReg == 0
		if u.flags&uopMem != 0 {
			// Local-store op first. Its pair bit guarantees a successor
			// in this block; a compute op there joins the cycle when its
			// operands are ready (compute-slot ops are all register-only).
			mix[u.cls]++
			if !s.lsAccess(t, u) {
				t++ // as in execute: issued, pc unchanged
				break
			}
			pc++
			u = &uops[pc]
			if blocked, _ := s.operandsBlocked(t, u); blocked || u.flags&uopMem != 0 {
				t++
				continue
			}
			instrs++
			probe = false
		}

		// Compute slot: ALU op, branch or NOP at pc.
		ins := &u.ins
		rd := ins.Rd
		var v int64
		pc++
		switch ins.Op {
		case isa.NOP:
			rd = isa.RegZero
		case isa.JMP, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			rd = isa.RegZero
			if isa.BranchTaken(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb]) {
				pc = int(ins.Imm)
				bubbleEnd = t + penalty
				s.nextIssueAt = bubbleEnd
				probe = false // a taken branch ends the issue group
			}
		default:
			v = isa.EvalALU(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb], int64(ins.Imm))
		}
		if rd != isa.RegZero {
			s.regs[rd] = v
			s.ready[rd] = t + sim.Cycle(u.lat)
			s.prod[rd] = prodALU
		}

		if probe {
			// Compute op first in a local-store pair: a local-store op
			// behind it takes the memory slot when its operands are
			// ready. Any other memory-slot op there was proved unable to
			// join at decode (secondCannotJoin).
			u = &uops[pc]
			if blocked, _ := s.operandsBlocked(t, u); !blocked && u.flags&uopMem != 0 {
				instrs++
				mix[u.cls]++
				if !s.lsAccess(t, u) {
					t++
					break
				}
				pc++
			}
		}
		t++
		if pc >= len(uops) {
			// The second instruction of the pair was the block's last:
			// the transition to the next block belongs to its cycle.
			s.pc = pc
			ok := s.skipEmptyBlocks(t - 1)
			uops, pc = s.uops, s.pc
			if !ok {
				break
			}
			if prof != nil {
				loc = s.curLoc()
			}
		}
	}

	s.pc = pc
	s.accounted = t
	s.st.Charge(stats.CauseIssue, cycles)
	s.st.Charge(s.causeFor(stats.CauseBubble), bubbles)
	for p, n := range stalls {
		s.st.Charge(s.causeFor(stallCause(prodClass(p))), n)
	}
	s.st.IssuedSlots += instrs
	s.st.Instr.Total += instrs
	s.st.Instr.Load += mix[iclsLoad]
	s.st.Instr.LSDir += mix[iclsLSDir]
	return t
}

// lsAccess executes the local-store or frame access u at cycle t for
// the burst kernel, with execute's semantics for the same opcodes; it
// does not advance pc. It returns false after raising a fault.
func (s *SPU) lsAccess(t sim.Cycle, u *uop) bool {
	ins := &u.ins
	addr := s.regs[ins.Ra] + int64(ins.Imm)
	write := false
	var v int64
	var err error
	switch ins.Op {
	case isa.LSRD:
		v, err = s.store.Read32(addr)
	case isa.LSRDX:
		v, err = s.store.Read32(addr + s.regs[ins.Rb])
	case isa.LSRD8:
		v, err = s.store.Read64(addr)
	case isa.LSRDX8:
		v, err = s.store.Read64(addr + s.regs[ins.Rb])
	case isa.LSWR:
		write, err = true, s.store.Write32(addr, s.regs[ins.Rd])
	case isa.LSWRX:
		write, err = true, s.store.Write32(addr+s.regs[ins.Rb], s.regs[ins.Rd])
	case isa.LSWR8:
		write, err = true, s.store.Write64(addr, s.regs[ins.Rd])
	case isa.LSWRX8:
		write, err = true, s.store.Write64(addr+s.regs[ins.Rb], s.regs[ins.Rd])
	case isa.LOAD, isa.LOADX:
		slot := int64(ins.Imm)
		if ins.Op == isa.LOADX {
			slot = s.regs[ins.Ra]
		}
		if slot < 0 || slot >= program.MaxFrameSlots {
			err = fmt.Errorf("spu%d: frame load slot %d", s.spe, slot)
		} else {
			v, err = s.store.Read64(s.lse.FrameAddr(s.cur.Slot) + slot*8)
		}
	default:
		panic(fmt.Sprintf("spu%d: %s inside a burst window", s.spe, ins.Op))
	}
	if err != nil {
		s.Fault(err)
		return false
	}
	ready := s.store.Access(ls.PortSPU, t, 8)
	if !write {
		s.setReg(ins.Rd, v, ready, prodLS)
	}
	return true
}
