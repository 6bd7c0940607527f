// Package spu models the CellDTA processing element: an in-order,
// dual-issue pipeline in the spirit of the Cell SPU (one memory-class and
// one compute-class instruction per cycle, no caches, no branch
// prediction — branches are assumed compiler-hinted and pay a small
// taken-branch bubble). The SPU executes DTA threads dispatched by its
// LSE, running their code blocks to completion: PF blocks program the
// MFC (their cycles are the paper's "Prefetching" overhead), PL/EX/PS
// blocks are ordinary execution.
//
// The pipeline keeps a register scoreboard for result latencies, so
// local-store reads (6 cycles) stall only dependent instructions —
// exactly the property that makes prefetched data cheap to access
// compared to blocking main-memory READs (~memory latency per access).
//
// A pipeline cycle is simulated by one of two paths that must agree on
// every register, cycle and counter:
//
//   - the reference cycle (tick → issueCycle → execute, spu.go): one
//     cycle on the engine clock, every opcode, every block transition.
//     It is all that runs when Config.BurstMax is 1, which is what the
//     burst differentials (synth corpus, paper experiments, dtafuzz
//     -diffburst, the kernel edge tests here) compare against;
//   - the kernel window (burst, burst.go): after each reference cycle,
//     one loop pre-executes the following cycles for as long as they
//     are invisible outside the pipeline — bubbles, scoreboard stalls,
//     register-only compute, and local-store accesses below the
//     engine's quiescence horizon — and hands the engine the first
//     cycle it could not take.
package spu

import (
	"fmt"
	"slices"

	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/ls"
	"repro/internal/mfc"
	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config holds pipeline micro-parameters. The paper does not specify
// them; defaults follow the Cell SPU's published latencies.
type Config struct {
	LatFX         int // simple fixed-point result latency (2)
	LatSH         int // shifter latency (4)
	LatMUL        int // multiplier latency (7)
	LatDIV        int // iterative divide latency (20)
	BranchPenalty int // extra cycles after a taken branch (hinted: 2)
	DispatchCost  int // pipeline refill when switching threads (4)
	// MFCChannelCycles is the pipeline occupancy of each MFC channel
	// write / command enqueue. On the Cell the SPU's channel interface
	// is slow compared to ALU ops, and this cost is what the paper's
	// "Prefetching" overhead bucket measures (the SPU "must spend some
	// time in order to program the DMA unit", §4.3).
	MFCChannelCycles int
	// PerfectCacheLat > 0 enables the paper's §4.3 always-hit study
	// ("all memory latencies in the system set to one cycle"): READ and
	// WRITE are served by an ideal local cache with this latency instead
	// of crossing the interconnect. The machine wires the backing store.
	PerfectCacheLat int
	// BurstMax bounds the burst-execution fast path: the maximum number
	// of pipeline cycles the SPU may simulate inside one engine Tick
	// when the upcoming instructions are straight-line register-only
	// compute (isa.BurstReg), or local-store reads and writes under an
	// engine-proved quiescence horizon (isa.BurstLSRead and
	// isa.BurstLSWrite). The burst is
	// cycle- and metric-identical to single-step execution — it only
	// skips engine round-trips for cycles no other component can
	// observe.
	//
	// Canonical value semantics (harness.Context.SingleStep and
	// synth.CheckOptions.DiffBurst defer to this definition):
	//
	//	 0   selects DefaultBurstMax — bursting enabled;
	//	 1   and every negative value disable bursting entirely: the
	//	     single-step slow path, at most one pipeline cycle per
	//	     engine tick, which the differential suites run as the
	//	     reference;
	//	 n>1 caps each burst window at n pipeline cycles.
	BurstMax int
}

// DefaultBurstMax is the burst-window bound applied when
// Config.BurstMax is 0. The cap exists so a runaway all-compute loop
// still returns to the engine often enough for Config.MaxCycles to
// abort it; since bursts are cycle-identical to single-step execution,
// the bound trades only abort granularity (still far below any real
// MaxCycles budget) against engine round-trips on compute-heavy code.
const DefaultBurstMax = 1 << 16

// DefaultConfig returns the default pipeline parameters.
func DefaultConfig() Config {
	return Config{LatFX: 2, LatSH: 4, LatMUL: 7, LatDIV: 20, BranchPenalty: 2,
		DispatchCost: 4, MFCChannelCycles: 24}
}

type phase uint8

const (
	phIdle phase = iota
	phRun
	phWaitRead
	phWaitFalloc
)

// producer classes for stall attribution.
type prodClass uint8

const (
	prodNone prodClass = iota
	prodALU
	prodLS  // local store / frame load
	prodMFC // MFC status read (MFCSTAT) — a dependent wait is a DMA poll
)

// uop flag bits.
const (
	uopMem      uint8 = 1 << iota // issues in the memory slot of the dual-issue pipeline
	uopBranch                     // control transfer (JMP / conditional branches)
	uopBurstReg                   // this and the next instruction are isa.BurstReg
	uopBurstLS                    // this and the next instruction are isa.BurstReg, isa.BurstLSRead or isa.BurstLSWrite
)

// uop is the decoded, SPU-resident form of one instruction: the
// instruction word itself plus the static per-instruction facts the
// issue path needs every cycle, precomputed once per template block so
// the hot loop does no isa.Info lookups or format dispatch and touches
// a single cache-friendly record per pc. The two burst bits describe
// the instruction *pair* at (pc, pc+1) — the furthest one issue cycle
// can reach — mirroring the burst-mask convention: the last instruction
// of a block carries neither bit, so block transitions always run on
// the engine clock.
type uop struct {
	ins   isa.Instruction
	lat   int32    // cfg-resolved result latency of the executing unit
	srcs  [3]uint8 // registers the scoreboard must clear before issue; slots past nsrc stay RegZero (always ready)
	nsrc  uint8
	flags uint8
	cls   uint8 // instruction-mix class for stats.InstrCounts (icls*)
}

// Instruction-mix classes, precomputed per opcode so the per-issue
// statistics update is an indexed switch instead of a 40-way opcode
// dispatch.
const (
	iclsOther uint8 = iota
	iclsLoad
	iclsStore
	iclsRead
	iclsWrite
	iclsLSDir
	iclsDTA
	iclsMFC
)

// SPU is one processing element's pipeline.
type SPU struct {
	cfg   Config
	id    int // noc endpoint id
	spe   int
	memID int
	net   *noc.Network
	lse   *dta.LSE
	dma   *mfc.Engine
	store *ls.LocalStore
	prog  *program.Program

	handle *sim.Handle

	regs  [isa.NumRegs]int64
	ready [isa.NumRegs]sim.Cycle
	prod  [isa.NumRegs]prodClass

	cur     *dta.Thread
	curKind dta.WorkKind
	block   program.BlockKind
	pc      int

	// uops is the decoded form of the current code block (uopTab caches
	// one table per template block): uops[pc] carries the instruction
	// plus everything the per-cycle issue path would otherwise re-derive
	// from isa.Info on every visit — scoreboard sources, issue slot,
	// branchness, the configured result latency — and the dual burst
	// masks of the instruction pair starting at pc (see uop). The tables
	// are carved from uopArena, which a Reset to another program rewinds
	// and does not free: a pooled machine decodes program after program
	// into the same memory.
	uops     []uop
	uopTab   [][]uop
	uopArena []uop

	ph          phase
	gapCause    stats.Cause // cause for cycles while sleeping
	gapLoc      stats.Loc   // guest location the sleep gap attributes to
	accounted   sim.Cycle   // cycles < accounted are attributed
	nextIssueAt sim.Cycle   // branch bubbles / dispatch refill
	burstLimit  sim.Cycle   // resolved Config.BurstMax (>= 1)
	resumeAt    sim.Cycle   // burst horizon: cycles below are already simulated

	// lsw is the machine's wiring declaration for the LS-read burst
	// window (SetLSWiring); lsWired gates the refined horizon — without
	// it the SPU falls back to the component-agnostic horizon.
	lsw     LSWiring
	lsWired bool
	eng     *sim.Engine

	readDst  uint8
	reqSeq   int64
	fallocRd uint8
	// resp is the READ response in hand (see DeliverAt): taken from the
	// network when memory sent it, applied by the first tick at or after
	// its delivery cycle.
	resp readResp

	st stats.SPU

	// Rec, when non-nil, receives SPU occupancy spans (dispatched work
	// units and burst windows) for timeline export; unitStart is the
	// dispatch cycle of the current work unit. Recording off (nil Rec)
	// costs one pointer compare per span site, nothing per cycle.
	Rec       *trace.Recorder
	unitStart sim.Cycle

	// Prof, when non-nil, receives per-(location, cause) cycle samples
	// from the same charge paths that feed the bucket breakdown, so
	// profiled attribution is definitionally consistent with the stats
	// and burst windows attribute in bulk (one Add per charge, not per
	// cycle). Profiling off (nil Prof) costs one nil check per charge.
	Prof *stats.Profile

	// Fault receives execution errors (invalid addresses, bad frame
	// pointers); the machine aborts the run.
	Fault func(error)
	// Magic is the ideal-cache backdoor used when PerfectCacheLat > 0:
	// it reads/writes main memory functionally without traffic.
	Magic MagicMem
}

// readResp is a blocking READ's response between its hand-over and the
// tick that applies it.
type readResp struct {
	held bool
	at   sim.Cycle // delivery cycle
	val  int64
}

// MagicMem is the functional memory access used by the perfect-cache
// mode (width is 4 or 8 bytes).
type MagicMem interface {
	MagicRead(addr int64, width int) (int64, error)
	MagicWrite(addr int64, v int64, width int) error
}

// New creates the SPU for SPE spe.
func New(cfg Config, id, spe, memID int, net *noc.Network, lseUnit *dta.LSE,
	dma *mfc.Engine, store *ls.LocalStore, prog *program.Program) *SPU {
	s := &SPU{
		cfg: cfg, id: id, spe: spe, memID: memID,
		net: net, lse: lseUnit, dma: dma, store: store, prog: prog,
		ph:       phIdle,
		gapCause: stats.CauseIdle,
		gapLoc:   stats.IdleLoc,
		Fault:    func(err error) { panic(err) },
	}
	s.burstLimit = sim.Cycle(cfg.BurstMax)
	if cfg.BurstMax == 0 {
		s.burstLimit = DefaultBurstMax
	} else if cfg.BurstMax < 1 {
		s.burstLimit = 1
	}
	s.uopTab = make([][]uop, len(prog.Templates)*int(program.NumBlocks))
	return s
}

// uopsFor returns (decoding on first use) the uop table of one template
// code block.
func (s *SPU) uopsFor(tmpl int, blk program.BlockKind) []uop {
	idx := tmpl*int(program.NumBlocks) + int(blk)
	if u := s.uopTab[idx]; u != nil {
		return u
	}
	u := s.buildUops(s.prog.Templates[tmpl].Blocks[blk])
	s.uopTab[idx] = u
	return u
}

// buildUops decodes one code block. It is the single place the static
// instruction metadata (operand format, issue slot, unit latency, burst
// class) is consulted; the per-cycle paths read only the resulting
// uops.
func (s *SPU) buildUops(code []isa.Instruction) []uop {
	us := s.carveUops(len(code))
	for i, ins := range code {
		info := isa.InfoOf(ins.Op)
		u := &us[i]
		*u = uop{ins: ins, cls: instrClass(ins.Op)} // recycled memory: set every field
		switch info.Fmt {
		case isa.FmtRa, isa.FmtRdRa, isa.FmtRdRaImm:
			u.srcs[0], u.nsrc = ins.Ra, 1
		case isa.FmtRdRaRb, isa.FmtRaRbImm, isa.FmtRdRaRbIm:
			u.srcs[0], u.srcs[1], u.nsrc = ins.Ra, ins.Rb, 2
		}
		// Stores read their value register (Rd) too.
		switch ins.Op {
		case isa.STORE, isa.STOREX, isa.WRITE, isa.WRITE8, isa.LSWR, isa.LSWR8,
			isa.LSWRX, isa.LSWRX8:
			u.srcs[u.nsrc], u.nsrc = ins.Rd, u.nsrc+1
		}
		if info.Unit.MemSlot() {
			u.flags |= uopMem
		}
		if info.Branch {
			u.flags |= uopBranch
		}
		u.lat = int32(s.latFor(info.Unit))
	}
	for i := 0; i+1 < len(code); i++ {
		a, b := isa.ClassOf(code[i].Op), isa.ClassOf(code[i+1].Op)
		if a == isa.BurstNone {
			continue
		}
		if b == isa.BurstNone {
			// The second instruction of the would-be issue pair is not
			// burst-safe, but the cycle starting at i is still safe to
			// pre-execute when the second instruction provably cannot
			// join it: either both compete for the same issue slot
			// (structural), or the second reads the first's destination
			// register, whose result lands at least one cycle later
			// (data dependence — the scoreboard blocks it exactly as in
			// single-step execution). The pre-executed cycle then issues
			// only the first instruction, and the burst loop stops at
			// the second, which runs on the engine clock.
			if !secondCannotJoin(&us[i], &us[i+1], code[i]) {
				continue
			}
			// Only the first instruction executes in this cycle, so the
			// cycle's burst class is the first's alone.
			b = isa.BurstReg
		}
		if a == isa.BurstReg && b == isa.BurstReg {
			us[i].flags |= uopBurstReg | uopBurstLS
		} else {
			us[i].flags |= uopBurstLS
		}
	}
	return us
}

// carveUops takes n uops off the arena's tail. When the arena has to
// grow it moves to a new backing array; tables carved before keep the
// old one, which nothing writes again.
func (s *SPU) carveUops(n int) []uop {
	used := len(s.uopArena)
	s.uopArena = slices.Grow(s.uopArena, n)[:used+n]
	return s.uopArena[used:]
}

// secondCannotJoin reports whether the instruction decoded as sec can
// never issue in the same cycle as fst (the instruction word insFst,
// already issued first): they compete for the same slot, or sec reads
// insFst's destination register and insFst's result latency is at
// least one cycle, so the scoreboard blocks sec until after this
// cycle. Both facts are static: registers come from the encodings and
// the latency from the decoded uop. RegZero writes are discarded (no
// scoreboard entry), so they prove nothing.
func secondCannotJoin(fst, sec *uop, insFst isa.Instruction) bool {
	if fst.flags&uopMem == sec.flags&uopMem {
		return true // structural: one memory and one compute slot per cycle
	}
	if insFst.Rd == isa.RegZero || fst.lat < 1 || !writesRd(insFst.Op) {
		return false
	}
	for k := uint8(0); k < sec.nsrc; k++ {
		if sec.srcs[k] == insFst.Rd {
			return true
		}
	}
	return false
}

// writesRd reports whether op architecturally writes its Rd field (true
// for every burstable op whose format carries a destination; branches,
// JMP and NOP carry none).
func writesRd(op isa.Op) bool {
	switch isa.InfoOf(op).Fmt {
	case isa.FmtRdImm, isa.FmtRdRa, isa.FmtRdRaRb, isa.FmtRdRaImm, isa.FmtRdRaRbIm:
		return !isa.InfoOf(op).Store
	}
	return false
}

// Name implements sim.Component.
func (s *SPU) Name() string { return fmt.Sprintf("spu%d", s.spe) }

// Attach stores the engine wake handle.
func (s *SPU) Attach(h *sim.Handle) {
	s.handle = h
	s.eng = h.Engine()
}

// LSWiring is the machine's declaration of everything that can touch
// this SPE's local store, in engine and interconnect terms. Components
// with pending LS-mutating work advertise it simply by being
// scheduled: the engine requires a component with pending work to be
// scheduled no later than that work's cycle (an unscheduled one would
// deadlock the machine today), so NextScheduled over the ids below,
// plus the network's per-group delivery cycles, bounds the next possible
// local-store mutation.
type LSWiring struct {
	// LSEID, MFCID are the engine identities (Handle.ID) of this SPE's
	// LSE and MFC — the only components whose Ticks read or write this
	// local store: the LSE performs frame stores, the MFC streams PUT
	// data out, and DMA/frame traffic from everywhere else lands via a
	// network delivery. MemID is main memory's engine identity: memory
	// is the only sender of DMA data (the messages whose delivery writes
	// the store with no further tick), which earns every other component
	// one extra cycle in the chain bound — their effects land in the
	// LSE's inbox and wait for an LSE service tick after delivery.
	LSEID, MFCID, MemID int32
	// TouchGroup is the network touch group (noc.DeclareTouchGroup)
	// holding this SPE's MFC and LSE endpoints: the network's tick
	// touches this local store only when it delivers to one of them.
	TouchGroup int
	// ChainLat is a lower bound on the cycles ANY other component needs
	// from its own tick to an effect on this local store; every such
	// path crosses the interconnect, so the machine passes
	// noc.Config.MinDeliveryLatency.
	ChainLat sim.Cycle
}

// SetLSWiring declares the machine wiring the LS-read burst path leans
// on; see LSWiring. Without it the SPU uses the component-agnostic
// quiescence horizon, which is correct but clamps on unrelated
// components.
func (s *SPU) SetLSWiring(w LSWiring) {
	s.lsw = w
	s.lsWired = true
}

// Wake prods the SPU (used by the LSE's OnWork callback).
func (s *SPU) Wake(now sim.Cycle) {
	if s.handle != nil {
		s.handle.Wake(now)
	}
}

// Stats returns the accumulated statistics.
func (s *SPU) Stats() stats.SPU { return s.st }

// Reset returns the pipeline to its post-construction state for
// machine reuse, rebinding it to prog (the uop cache is sized by the
// program's template count). Wiring (Fault, Magic, handle) is kept.
func (s *SPU) Reset(prog *program.Program) {
	if prog != s.prog {
		// The uop cache is keyed by template block; it stays valid when
		// the same program is re-run. For another program every table is
		// dropped, and the arena they were carved from starts over.
		n := len(prog.Templates) * int(program.NumBlocks)
		if n <= cap(s.uopTab) {
			s.uopTab = s.uopTab[:n]
			for i := range s.uopTab {
				s.uopTab[i] = nil
			}
		} else {
			s.uopTab = make([][]uop, n)
		}
		s.uopArena = s.uopArena[:0]
	}
	s.prog = prog
	for i := range s.regs {
		s.regs[i], s.ready[i], s.prod[i] = 0, 0, prodNone
	}
	s.cur, s.curKind = nil, dta.WorkNone
	s.block = 0
	s.pc = 0
	s.uops = nil
	s.ph = phIdle
	s.gapCause = stats.CauseIdle
	s.gapLoc = stats.IdleLoc
	s.accounted = 0
	s.nextIssueAt = 0
	s.resumeAt = 0
	s.readDst = 0
	s.reqSeq = 0
	s.fallocRd = 0
	s.resp = readResp{}
	s.unitStart = 0
	s.st = stats.SPU{}
}

// Finalize charges the trailing sleep gap up to end (call once when the
// run stops) and records the run length.
func (s *SPU) Finalize(end sim.Cycle) {
	if end > s.accounted {
		n := int64(end - s.accounted)
		s.st.Charge(s.gapCause, n)
		s.Prof.Add(s.gapLoc, s.gapCause, n)
		s.accounted = end
	}
	s.st.Cycles = int64(end)
}

// account charges the sleep gap [s.accounted, now) to gapCause at
// gapLoc — the PC of the instruction that entered the wait (or IdleLoc).
func (s *SPU) account(now sim.Cycle) {
	if now > s.accounted {
		n := int64(now - s.accounted)
		s.st.Charge(s.gapCause, n)
		s.Prof.Add(s.gapLoc, s.gapCause, n)
		s.accounted = now
	}
}

// chargeCycle attributes the single cycle `now` to cause c at loc.
func (s *SPU) chargeCycle(now sim.Cycle, c stats.Cause, loc stats.Loc) {
	s.account(now)
	if s.accounted == now {
		s.st.Charge(c, 1)
		s.Prof.Add(loc, c, 1)
		s.accounted = now + 1
	}
}

// OnFallocResp is wired to the LSE: a FALLOC round trip completed.
func (s *SPU) OnFallocResp(now sim.Cycle, reqID, fp int64) {
	if s.ph != phWaitFalloc {
		s.Fault(fmt.Errorf("spu%d: unexpected falloc response", s.spe))
		return
	}
	s.setReg(s.fallocRd, fp, now+1, prodALU)
	s.ph = phRun
	s.Wake(now + 1)
}

// DeliverAt implements noc.TimedEndpoint. The only message an SPU
// receives is the response to its one outstanding blocking READ; the SPU
// keeps it with its delivery cycle and wakes for the cycle after, and
// Tick applies it (see there). Anything else — a second response, a
// response with no READ outstanding, another kind — is a machine bug and
// faults, now at the hand-over (the cycle memory sends) instead of at
// the delivery cycle.
func (s *SPU) DeliverAt(at sim.Cycle, _ int64, m noc.Message) {
	if m.Kind != noc.KindMemReadResp || s.ph != phWaitRead || s.resp.held {
		s.Fault(fmt.Errorf("spu%d: unexpected %s in phase %d", s.spe, m, s.ph))
		return
	}
	s.resp = readResp{held: true, at: at, val: m.B}
	s.Wake(at + 1)
}

// Undelivered implements noc.TimedEndpoint.
func (s *SPU) Undelivered(now sim.Cycle) int {
	if s.resp.held && s.resp.at > now {
		return 1
	}
	return 0
}

func (s *SPU) setReg(r uint8, v int64, ready sim.Cycle, p prodClass) {
	if r == isa.RegZero {
		return
	}
	s.regs[r] = v
	s.ready[r] = ready
	s.prod[r] = p
}

// dispatch loads a new work unit from the LSE.
func (s *SPU) dispatch(now sim.Cycle) bool {
	th, kind := s.lse.NextWork(now)
	if kind == dta.WorkNone {
		return false
	}
	s.cur, s.curKind = th, kind
	s.unitStart = now
	for i := range s.regs {
		s.regs[i], s.ready[i], s.prod[i] = 0, 0, prodNone
	}
	s.regs[isa.RegFP] = dta.MakeFP(s.spe, th.Slot)
	s.regs[isa.RegPFB] = int64(th.BufAddr)
	s.regs[isa.RegSPE] = int64(s.spe)
	s.regs[isa.RegTag] = th.Seq
	if kind == dta.WorkPF {
		s.block = program.PF
		s.st.PFBlocks++
	} else {
		s.block = program.PL
	}
	s.uops = s.uopsFor(th.Template, s.block)
	s.pc = 0
	s.skipEmptyBlocks(now)
	s.nextIssueAt = now + sim.Cycle(s.cfg.DispatchCost)
	s.ph = phRun
	return true
}

// skipEmptyBlocks advances past empty code blocks (e.g. a thread with no
// PL). Returns false when the work unit is exhausted.
func (s *SPU) skipEmptyBlocks(now sim.Cycle) bool {
	for s.cur != nil && s.pc >= len(s.uops) {
		if !s.advanceBlock(now) {
			return false
		}
	}
	return s.cur != nil
}

// advanceBlock moves to the next block of the current work unit; false
// means the unit ended.
func (s *SPU) advanceBlock(now sim.Cycle) bool {
	if s.curKind == dta.WorkPF {
		// PF block complete: the thread waits for its DMA tag group.
		if s.Rec != nil {
			s.Rec.SPUUnit(s.spe, trace.UnitPF, s.unitStart, now+1, s.cur.Seq, s.cur.Template)
		}
		s.lse.PFDone(now, s.cur)
		s.cur = nil
		return false
	}
	switch s.block {
	case program.PL:
		s.block = program.EX
	case program.EX:
		s.block = program.PS
	case program.PS:
		// PS must end in STOP (validated); falling off is a machine bug.
		s.Fault(fmt.Errorf("spu%d: PS block of template %d fell through", s.spe,
			s.cur.Template))
		s.cur = nil
		return false
	}
	s.uops = s.uopsFor(s.cur.Template, s.block)
	s.pc = 0
	return true
}

// causeFor maps an execution cycle's raw cause to the attributed one:
// everything inside a PF block is prefetch overhead (paper Fig. 5
// "Prefetching"), refined into DMA-wait (cycles blocked on the DMA
// engine itself: status polls, full command queue) vs DMA-programming
// (everything else — issue, channel occupancy, dependency waits). The
// folded cause's bucket reproduces the historical bucketFor mapping
// exactly: any cause inside PF lands in stats.Prefetch.
func (s *SPU) causeFor(c stats.Cause) stats.Cause {
	if s.curKind == dta.WorkPF {
		switch c {
		case stats.CauseMFCWait, stats.CauseMFCQueueFull:
			return stats.CauseDMAWait
		}
		return stats.CauseDMAProgram
	}
	return c
}

// curLoc returns the guest location of the current PC (IdleLoc when no
// work unit is resident). Cheap enough to compute unconditionally: the
// profiler consumes it only when enabled.
func (s *SPU) curLoc() stats.Loc {
	if s.cur == nil {
		return stats.IdleLoc
	}
	return stats.Loc{Template: int32(s.cur.Template), Block: uint8(s.block), PC: int32(s.pc)}
}

// Tick simulates the pipeline cycle at now through the reference path
// and then, unless Config.BurstMax is 1, a kernel window of up to
// burstLimit-1 further cycles (see burst), and returns the first cycle
// not yet simulated so the engine skips the pre-executed ones.
//
// What may run ahead of the engine clock is decided per cycle from the
// decoded instruction pair at pc: straight-line register-only compute
// (isa.BurstReg — nothing another component can observe) always;
// local-store reads (isa.BurstLSRead: LSRD*/LOAD*) and direct
// local-store writes (isa.BurstLSWrite: LSWR*) for simulated cycles t
// strictly below the quiescence horizon (lsHorizon): until t, no other
// component runs, so nothing — no MFC write-back, LSE frame delivery,
// or network delivery — can write this SPE's local store, and nothing —
// no MFC PUT streaming, no LSE frame read — can observe a write landed
// early; an access simulated at engine-time now is byte- and
// cycle-identical to one executed at t. Anything the reference cycle
// itself scheduled (a wake posted by an MFC, LSE or network op) is
// already in the schedule when the window reads the horizon.
//
// Caveat (documented, not observable in well-formed DTA activities):
// window cycles are simulated eagerly, so if the whole activity
// completes while this SPU is inside a window, the final statistics
// include the window's cycles beyond the stop cycle. DTA programs end
// with a join — every SPU is quiescent when the last token posts — and
// the differential suite asserts exact burst == single-step identity
// across the synth corpus, the paper experiments and the machine tests.
// Similarly, a Config.MaxCycles abort may be detected up to burstLimit
// cycles later than in single-step mode, and a fault raised by a
// pre-executed instruction (e.g. a LOADX slot taken from data) aborts
// the run at the engine cycle the window started rather than the
// simulated cycle of the instruction.
func (s *SPU) Tick(now sim.Cycle) sim.Cycle {
	if now < s.resumeAt {
		// An early wake (e.g. the LSE's OnWork) landed inside a burst
		// window whose cycles are already simulated; sleep to the
		// horizon. Running-thread execution never depends on wakes.
		return s.resumeAt
	}
	if s.ph == phWaitRead {
		// Blocked on a READ; gap accounting happens on resumption. The
		// response is delivered at resp.at, so its value is ready the cycle
		// after and the pipeline normally resumes then, on the wake
		// DeliverAt posted. A tick at resp.at itself (the LSE's OnWork
		// landed in the delivery cycle) already finds the response
		// delivered and resumes there: instructions that do not read the
		// destination issue a cycle early, as they always have. A tick
		// before resp.at must re-arm that wake — the engine keeps one slot
		// per component, and this tick just used it up.
		if !s.resp.held {
			return sim.Never
		}
		if now < s.resp.at {
			return s.resp.at + 1
		}
		s.setReg(s.readDst, s.resp.val, s.resp.at+1, prodALU)
		s.resp = readResp{}
		s.ph = phRun
	}
	next := s.tick(now)
	if s.Rec != nil && s.accounted > now+1 {
		// More than one pipeline cycle was simulated inside this engine
		// tick: a kernel window.
		s.Rec.SPUBurst(s.spe, now, s.accounted)
	}
	if next == sim.Never {
		s.resumeAt = 0
	} else {
		s.resumeAt = next
	}
	return next
}

func (s *SPU) tick(now sim.Cycle) sim.Cycle {
	switch s.ph {
	case phWaitFalloc:
		// Sleeping on the LSE's response; gap accounting happens on wake.
		// (A READ wait never gets here: Tick resolves it first.)
		return sim.Never
	case phIdle:
		s.account(now)
		if !s.dispatch(now) {
			s.gapCause = stats.CauseIdle
			s.gapLoc = stats.IdleLoc
			return sim.Never
		}
	case phRun:
		if s.cur == nil && !s.dispatch(now) {
			s.account(now)
			s.ph = phIdle
			s.gapCause = stats.CauseIdle
			s.gapLoc = stats.IdleLoc
			return sim.Never
		}
	}
	// The reference cycle: the one pipeline cycle on the engine clock,
	// where anything may execute. It attributes to the PC it started at —
	// the first instruction considered (issued or blocked); per-PC
	// attribution only matters when the guest profiler is on, and the
	// zero Loc is fine for the nil-profile sink.
	var loc stats.Loc
	if s.Prof != nil {
		loc = s.curLoc()
	}
	if now < s.nextIssueAt {
		// Dispatch refill, branch bubble, or MFC channel busy.
		s.chargeCycle(now, s.causeFor(stats.CauseBubble), loc)
	} else {
		cause, sleep := s.issueCycle(now)
		s.chargeCycle(now, cause, loc)
		if sleep {
			return sim.Never
		}
	}
	t := now + 1
	if limit := now + s.burstLimit; t < limit && s.cur != nil {
		// A work unit is still resident (after STOP or PF completion the
		// next cycle dispatches, which resets the pipeline refill — that
		// runs on the engine clock): pre-execute what nothing else can
		// observe.
		t = s.burst(t, limit)
	}
	return t
}

// lsHorizon derives the first cycle at which this SPE's local store
// could be touched by someone else. The kernel reads it at most once per
// window: nothing else runs during this SPU's Tick and no instruction
// that can wake another component executes inside a window, so the
// schedule cannot gain entries in between. With the machine's wiring
// declaration (SetLSWiring) it is the earliest of:
//
//   - the next scheduled cycle of this SPE's LSE or MFC;
//   - the exact cycle of the earliest network delivery to this SPE's
//     MFC/LSE endpoints among the messages already sent (the network
//     fixes a message's delivery cycle when it is sent);
//   - the component-agnostic quiescence horizon plus the
//     interconnect's minimum delivery latency: any component outside
//     the set above (another SPE, a DSE, the PPE, main memory) first
//     has to run, no earlier than the horizon, and then cross the
//     interconnect before it can reach this store.
//
// Network ticks that only serve other endpoints' traffic — including
// this SPU's own posted WRITEs to main memory — no longer clamp the
// window. Without wiring it degrades to the quiescence horizon alone.
func (s *SPU) lsHorizon() sim.Cycle {
	h := s.handle.Horizon()
	if s.eng == nil || !s.lsWired {
		return h
	}
	if h != sim.Never {
		// Generic bound for every other component: it must run (no
		// earlier than the quiescence horizon), cross the interconnect
		// (ChainLat), and — since only main memory sends the DMA data
		// messages whose delivery itself writes the store — its effect
		// lands in our LSE's inbox and waits one more cycle for an LSE
		// service tick. (If our LSE were already scheduled at the
		// delivery cycle, its own term below caps the window first.)
		h += s.lsw.ChainLat + 1
	}
	if n := s.eng.NextScheduled(s.lsw.MemID); n != sim.Never && n+s.lsw.ChainLat < h {
		h = n + s.lsw.ChainLat // memory's DMA data writes the store at delivery
	}
	if n := s.eng.NextScheduled(s.lsw.LSEID); n < h {
		h = n
	}
	if n := s.eng.NextScheduled(s.lsw.MFCID); n < h {
		h = n
	}
	if d := s.net.EarliestDeliveryTo(s.lsw.TouchGroup); d < h {
		h = d
	}
	return h
}

// issueCycle is the reference implementation of one pipeline cycle: it
// attempts to issue up to two instructions at cycle now and returns the
// cycle's cause and whether the SPU should sleep (blocking wait
// entered). It handles every opcode and every block transition; the
// burst kernel covers a subset of the same cycles and is held to this
// path by the burst differentials.
func (s *SPU) issueCycle(now sim.Cycle) (stats.Cause, bool) {
	issued := 0
	memUsed, cmpUsed := false, false
	cycleCause := s.causeFor(stats.CauseIssue)

	for issued < 2 && s.cur != nil {
		if s.pc >= len(s.uops) {
			if !s.skipEmptyBlocks(now) {
				break // work unit ended (PF completion)
			}
		}
		u := &s.uops[s.pc]
		ins := u.ins
		isMem := u.flags&uopMem != 0
		if (isMem && memUsed) || (!isMem && cmpUsed) {
			break // structural: slot taken this cycle
		}
		if blocked, cause := s.operandsBlocked(now, u); blocked {
			if issued == 0 {
				cycleCause = s.causeFor(cause)
			}
			break
		}
		ok, sleep, cause := s.execute(now, ins, u)
		if !ok {
			// Structural stall outside the pipeline (LSE/MFC full).
			if issued == 0 {
				cycleCause = s.causeFor(cause)
			}
			break
		}
		issued++
		s.st.IssuedSlots++
		s.countInstr(u.cls)
		if isMem {
			memUsed = true
		} else {
			cmpUsed = true
		}
		if sleep {
			return s.causeFor(stats.CauseIssue), true
		}
		if u.flags&uopBranch != 0 && s.nextIssueAt > now {
			break // taken branch ends the issue group
		}
		if s.cur == nil {
			break // STOP or PF completion inside execute
		}
	}
	return cycleCause, false
}

// operandsBlocked checks the scoreboard for the instruction's
// precomputed source registers and reports the raw stall cause (the
// caller folds PF-block context via causeFor).
func (s *SPU) operandsBlocked(now sim.Cycle, u *uop) (bool, stats.Cause) {
	for i := uint8(0); i < u.nsrc; i++ {
		if r := u.srcs[i]; s.ready[r] > now {
			return true, stallCause(s.prod[r])
		}
	}
	return false, stats.CauseIssue
}

// stallCause maps the producer class of a pending register to the raw
// cause of a scoreboard wait on it.
func stallCause(p prodClass) stats.Cause {
	switch p {
	case prodLS:
		return stats.CauseLSWait
	case prodMFC:
		return stats.CauseMFCWait
	}
	return stats.CauseDepStall
}

func (s *SPU) countInstr(cls uint8) {
	s.st.Instr.Total++
	switch cls {
	case iclsLoad:
		s.st.Instr.Load++
	case iclsStore:
		s.st.Instr.Store++
	case iclsRead:
		s.st.Instr.Read++
	case iclsWrite:
		s.st.Instr.Write++
	case iclsLSDir:
		s.st.Instr.LSDir++
	case iclsDTA:
		s.st.Instr.DTA++
	case iclsMFC:
		s.st.Instr.MFC++
	}
}

// instrClass maps an opcode to its stats.InstrCounts class (the
// decode-time half of countInstr).
func instrClass(op isa.Op) uint8 {
	switch op {
	case isa.LOAD, isa.LOADX:
		return iclsLoad
	case isa.STORE, isa.STOREX:
		return iclsStore
	case isa.READ, isa.READ8:
		return iclsRead
	case isa.WRITE, isa.WRITE8:
		return iclsWrite
	case isa.LSRD, isa.LSRD8, isa.LSWR, isa.LSWR8, isa.LSRDX, isa.LSRDX8,
		isa.LSWRX, isa.LSWRX8:
		return iclsLSDir
	case isa.FALLOC, isa.FALLOCX, isa.FFREE, isa.STOP:
		return iclsDTA
	case isa.MFCLSA, isa.MFCEA, isa.MFCSZ, isa.MFCTAG, isa.MFCGET, isa.MFCPUT,
		isa.MFCSTAT:
		return iclsMFC
	}
	return iclsOther
}

func (s *SPU) latFor(u isa.Unit) sim.Cycle {
	switch u {
	case isa.UnitSH:
		return sim.Cycle(s.cfg.LatSH)
	case isa.UnitMUL:
		return sim.Cycle(s.cfg.LatMUL)
	case isa.UnitDIV:
		return sim.Cycle(s.cfg.LatDIV)
	}
	return sim.Cycle(s.cfg.LatFX)
}

// execute performs one instruction. ok=false means a structural stall
// (retry next cycle, pc unchanged) with the raw stall cause; sleep=true
// means the SPU enters a blocking wait (pc already advanced, gapCause
// and gapLoc set to attribute the coming sleep gap). u.lat carries the
// executing unit's configured result latency.
func (s *SPU) execute(now sim.Cycle, ins isa.Instruction, u *uop) (ok, sleep bool, cause stats.Cause) {
	r := func(i uint8) int64 { return s.regs[i] }
	adv := func() { s.pc++ }

	switch ins.Op {
	case isa.NOP:
		adv()

	case isa.MOVI, isa.MOVHI, isa.MOV,
		isa.ADD, isa.ADDI, isa.SUB, isa.SUBI, isa.MUL, isa.MULI, isa.DIV,
		isa.REM, isa.AND, isa.ANDI, isa.OR, isa.ORI, isa.XOR, isa.XORI,
		isa.SHL, isa.SHLI, isa.SHR, isa.SHRI, isa.SRA, isa.SRAI,
		isa.CMPEQ, isa.CMPLT, isa.CMPLTU:
		v := isa.EvalALU(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb], int64(ins.Imm))
		s.setReg(ins.Rd, v, now+sim.Cycle(u.lat), prodALU)
		adv()

	case isa.JMP:
		s.pc = int(ins.Imm)
		s.nextIssueAt = now + 1 + sim.Cycle(s.cfg.BranchPenalty)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if isa.BranchTaken(ins.Op, s.regs[ins.Ra], s.regs[ins.Rb]) {
			s.pc = int(ins.Imm)
			s.nextIssueAt = now + 1 + sim.Cycle(s.cfg.BranchPenalty)
		} else {
			adv()
		}

	case isa.LOAD, isa.LOADX:
		slot := int64(ins.Imm)
		if ins.Op == isa.LOADX {
			slot = r(ins.Ra)
		}
		if slot < 0 || slot >= program.MaxFrameSlots {
			s.Fault(fmt.Errorf("spu%d: frame load slot %d", s.spe, slot))
			return true, false, stats.CauseIssue
		}
		addr := s.lse.FrameAddr(s.cur.Slot) + slot*8
		v, err := s.store.Read64(addr)
		if err != nil {
			s.Fault(err)
			return true, false, stats.CauseIssue
		}
		ready := s.store.Access(ls.PortSPU, now, 8)
		s.setReg(ins.Rd, v, ready, prodLS)
		adv()

	case isa.STORE, isa.STOREX:
		if !s.lse.CanAccept() {
			return false, false, stats.CauseLSEBackpressure
		}
		slot := int64(ins.Imm)
		if ins.Op == isa.STOREX {
			slot = r(ins.Rb)
		}
		s.lse.StoreTo(now, r(ins.Ra), int(slot), r(ins.Rd))
		adv()

	case isa.READ, isa.READ8:
		width := 4
		kind := noc.KindMemRead32
		if ins.Op == isa.READ8 {
			width, kind = 8, noc.KindMemRead64
		}
		addr := r(ins.Ra) + int64(ins.Imm)
		if s.cfg.PerfectCacheLat > 0 && s.Magic != nil {
			v, err := s.Magic.MagicRead(addr, width)
			if err != nil {
				s.Fault(err)
				return true, false, stats.CauseIssue
			}
			s.setReg(ins.Rd, v, now+sim.Cycle(s.cfg.PerfectCacheLat), prodLS)
			adv()
			return true, false, stats.CauseIssue
		}
		s.reqSeq++
		s.net.Send(now, noc.Message{
			Src: int32(s.id), Dst: int32(s.memID), Kind: kind,
			A: addr, C: s.reqSeq,
		})
		s.readDst = ins.Rd
		s.ph = phWaitRead
		s.gapCause = s.causeFor(stats.CauseBlockingRead)
		s.gapLoc = s.curLoc()
		adv()
		return true, true, stats.CauseIssue

	case isa.WRITE, isa.WRITE8:
		width := 4
		kind := noc.KindMemWrite32
		if ins.Op == isa.WRITE8 {
			width, kind = 8, noc.KindMemWrite64
		}
		if s.cfg.PerfectCacheLat > 0 && s.Magic != nil {
			if err := s.Magic.MagicWrite(r(ins.Ra)+int64(ins.Imm), r(ins.Rd), width); err != nil {
				s.Fault(err)
			}
			adv()
			break
		}
		s.net.Send(now, noc.Message{
			Src: int32(s.id), Dst: int32(s.memID), Kind: kind,
			A: r(ins.Ra) + int64(ins.Imm), B: r(ins.Rd),
		})
		adv()

	case isa.LSRD, isa.LSRD8, isa.LSRDX, isa.LSRDX8:
		addr := r(ins.Ra) + int64(ins.Imm)
		if ins.Op == isa.LSRDX || ins.Op == isa.LSRDX8 {
			addr += r(ins.Rb)
		}
		var v int64
		var err error
		if ins.Op == isa.LSRD || ins.Op == isa.LSRDX {
			v, err = s.store.Read32(addr)
		} else {
			v, err = s.store.Read64(addr)
		}
		if err != nil {
			s.Fault(err)
			return true, false, stats.CauseIssue
		}
		ready := s.store.Access(ls.PortSPU, now, 8)
		s.setReg(ins.Rd, v, ready, prodLS)
		adv()

	case isa.LSWR, isa.LSWR8, isa.LSWRX, isa.LSWRX8:
		addr := r(ins.Ra) + int64(ins.Imm)
		if ins.Op == isa.LSWRX || ins.Op == isa.LSWRX8 {
			addr += r(ins.Rb)
		}
		var err error
		if ins.Op == isa.LSWR || ins.Op == isa.LSWRX {
			err = s.store.Write32(addr, r(ins.Rd))
		} else {
			err = s.store.Write64(addr, r(ins.Rd))
		}
		if err != nil {
			s.Fault(err)
			return true, false, stats.CauseIssue
		}
		s.store.Access(ls.PortSPU, now, 8)
		adv()

	case isa.FALLOC, isa.FALLOCX:
		if !s.lse.CanAccept() {
			return false, false, stats.CauseLSEBackpressure
		}
		var tmpl, sc int
		if ins.Op == isa.FALLOC {
			tmpl, sc = isa.UnpackFalloc(ins.Imm)
		} else {
			tmpl, sc = int(r(ins.Ra)), int(r(ins.Rb))
		}
		s.reqSeq++
		s.fallocRd = ins.Rd
		s.lse.RequestFalloc(now, tmpl, sc, s.reqSeq)
		s.ph = phWaitFalloc
		s.gapCause = s.causeFor(stats.CauseFallocWait)
		s.gapLoc = s.curLoc()
		adv()
		return true, true, stats.CauseIssue

	case isa.FFREE:
		if !s.lse.CanAccept() {
			return false, false, stats.CauseLSEBackpressure
		}
		s.lse.Ffree(now, s.cur)
		adv()

	case isa.STOP:
		if !s.lse.CanAccept() {
			return false, false, stats.CauseLSEBackpressure
		}
		if s.Rec != nil {
			s.Rec.SPUUnit(s.spe, trace.UnitThread, s.unitStart, now+1, s.cur.Seq, s.cur.Template)
		}
		s.lse.ThreadDone(now, s.cur)
		s.st.Threads++
		s.cur = nil
		return true, false, stats.CauseIssue

	case isa.MFCLSA:
		s.dma.WriteChannel(mfc.ChLSA, r(ins.Ra))
		s.channelBusy(now)
		adv()
	case isa.MFCEA:
		s.dma.WriteChannel(mfc.ChEA, r(ins.Ra))
		s.channelBusy(now)
		adv()
	case isa.MFCSZ:
		s.dma.WriteChannel(mfc.ChSize, r(ins.Ra))
		s.channelBusy(now)
		adv()
	case isa.MFCTAG:
		s.dma.WriteChannel(mfc.ChTag, r(ins.Ra))
		s.channelBusy(now)
		adv()
	case isa.MFCGET:
		if !s.dma.Enqueue(now, mfc.Get) {
			return false, false, stats.CauseMFCQueueFull
		}
		s.channelBusy(now)
		adv()
	case isa.MFCPUT:
		if !s.dma.Enqueue(now, mfc.Put) {
			return false, false, stats.CauseMFCQueueFull
		}
		s.channelBusy(now)
		adv()
	case isa.MFCSTAT:
		// u.lat is latFor(UnitMFC) == the FX latency. The result carries
		// prodMFC so a dependent wait attributes as a DMA status poll
		// (bucket-identical to the historical prodALU classification:
		// CauseMFCWait folds into Working outside PF, Prefetch inside).
		s.setReg(ins.Rd, int64(s.dma.Outstanding(s.regs[isa.RegTag])),
			now+sim.Cycle(u.lat), prodMFC)
		adv()

	default:
		s.Fault(fmt.Errorf("spu%d: unimplemented opcode %s", s.spe, ins.Op))
	}

	if s.cur != nil && s.pc >= len(s.uops) {
		s.skipEmptyBlocks(now)
	}
	return true, false, stats.CauseIssue
}

// channelBusy stalls the pipeline for the MFC channel-interface cost
// (the paper's DMA-programming overhead).
func (s *SPU) channelBusy(now sim.Cycle) {
	if s.cfg.MFCChannelCycles > 1 {
		at := now + sim.Cycle(s.cfg.MFCChannelCycles)
		if at > s.nextIssueAt {
			s.nextIssueAt = at
		}
	}
}

// DumpState implements sim.StateDumper.
func (s *SPU) DumpState() string {
	cur := "none"
	if s.cur != nil {
		cur = s.cur.String()
	}
	read := ""
	if s.resp.held {
		read = fmt.Sprintf(" read-response at %d", s.resp.at)
	} else if s.ph == phWaitRead {
		read = " read under way"
	}
	return fmt.Sprintf("phase=%d work=%s block=%s pc=%d%s", s.ph, cur, s.block, s.pc, read)
}
