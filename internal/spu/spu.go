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
//     burst differentials (synth corpus, paper experiments, dta fuzz
//     -diffburst, the kernel edge tests here) compare against;
//   - the kernel window (burst, burst.go): after each reference cycle,
//     one loop pre-executes the following cycles for as long as they
//     are invisible outside the pipeline — bubbles, scoreboard stalls,
//     register-only compute, and runs whose local-store accesses touch
//     bytes nothing else touches before the window ends (see private) —
//     and hands the engine the first cycle it could not take.
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
	// compute (isa.BurstReg), or runs that mix it with local-store
	// reads and writes of bytes no other component can touch meanwhile
	// (isa.BurstLS). The burst is
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
	uopMem    uint8 = 1 << iota // issues in the memory slot of the dual-issue pipeline
	uopBranch                   // control transfer (JMP / conditional branches)
	uopReg                      // isa.BurstReg: register-only, in the compute slot
	uopLS                       // isa.BurstLS: a local-store access, in the memory slot
)

// uop is the decoded, SPU-resident form of one instruction: the
// instruction word itself plus the static per-instruction facts the
// issue path needs every cycle, precomputed once per template block so
// the hot loop does no isa.Info lookups or format dispatch and touches
// a single cache-friendly record per pc. The class bits (uopReg, uopLS)
// say what the instruction is, not whether its cycle may run ahead of
// the engine clock: whether it pairs with its successor depends on the
// scoreboard, and the kernel decides that when it gets there (see
// SPU.alone and run).
type uop struct {
	ins   isa.Instruction
	lat   int32    // cfg-resolved result latency of the executing unit
	srcs  [3]uint8 // registers the scoreboard must clear before issue; slots past nsrc stay RegZero (always ready)
	nsrc  uint8
	flags uint8
}

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
	code  *Code

	handle *sim.Handle

	regs  [isa.NumRegs]int64
	ready [isa.NumRegs]sim.Cycle
	prod  [isa.NumRegs]prodClass

	cur     *dta.Thread
	curKind dta.WorkKind
	block   program.BlockKind
	pc      int

	// uops is the current code block's table in code: uops[pc] carries
	// the instruction plus everything the per-cycle issue path would
	// otherwise re-derive from isa.Info on every visit — scoreboard
	// sources, issue slot, branchness, burst class, the configured result
	// latency (see uop).
	uops []uop
	// runAt is the current block's run entries in code (see decoded).
	runAt []int32
	// row0 is the profile row of pc 0 of the current block: pc charges
	// row0+pc (see Prof).
	row0 int

	ph          phase
	gapCause    stats.Cause // cause for cycles while sleeping
	gapRow      int         // profile row the sleep gap attributes to
	accounted   sim.Cycle   // cycles < accounted are attributed
	nextIssueAt sim.Cycle   // branch bubbles / dispatch refill
	burstLimit  sim.Cycle   // resolved Config.BurstMax (>= 1)
	resumeAt    sim.Cycle   // end of the last kernel window: cycles below are already simulated
	// live holds the live MFC commands' local-store ranges while liveOK;
	// a kernel window reads them at most once (see private).
	live   []mfc.Range
	liveOK bool
	// lsLat is the cycles from a local-store op's issue to its result on
	// a free port: the store's latency, or -1 when an access holds the
	// port more than one cycle, so that back-to-back accesses queue and
	// no local-store op joins a run (see run).
	lsLat int32
	// steps counts, by run of code, the iterations of run steps not yet
	// charged to Prof (see ChargeRuns).
	steps []int64

	readDst  uint8
	reqSeq   int64
	fallocRd uint8
	// resp is the READ response in hand (see DeliverAt): taken from the
	// network when memory sent it, applied by the first tick at or after
	// its delivery cycle.
	resp readResp

	// st holds the counts the SPU keeps itself; Finalize folds the cycle
	// and instruction counts into it from Prof.
	st stats.SPU

	// Rec, when non-nil, receives SPU occupancy spans (dispatched work
	// units and burst windows) for timeline export; unitStart is the
	// dispatch cycle of the current work unit. Recording off (nil Rec)
	// costs one pointer compare per span site, nothing per cycle.
	Rec       *trace.Recorder
	unitStart sim.Cycle

	// Prof is the machine's guest profile, shaped for the program code
	// is bound to, and the only store the SPU charges: each cycle at the
	// pc it attributes to, each issued instruction at its own pc.
	// Finalize folds the SPU's breakdown and instruction mix from it. A
	// kernel window charges in bulk (one Add per charge, not per cycle),
	// and a run step only counts itself in steps, which ChargeRuns
	// expands before anything reads the profile.
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

// New creates the SPU for SPE spe, configured and programmed by code.
func New(code *Code, id, spe, memID int, net *noc.Network, lseUnit *dta.LSE,
	dma *mfc.Engine, store *ls.LocalStore) *SPU {
	cfg := code.cfg
	s := &SPU{
		cfg: cfg, id: id, spe: spe, memID: memID,
		net: net, lse: lseUnit, dma: dma, store: store, code: code,
		ph:       phIdle,
		gapCause: stats.CauseIdle,
		Fault:    func(err error) { panic(err) },
	}
	s.lsLat = -1
	if store.Occupancy(8) == 1 {
		s.lsLat = int32(store.Latency())
	}
	s.burstLimit = sim.Cycle(cfg.BurstMax)
	if cfg.BurstMax == 0 {
		s.burstLimit = DefaultBurstMax
	} else if cfg.BurstMax < 1 {
		s.burstLimit = 1
	}
	return s
}

// Code is a program decoded for one pipeline configuration: a uop table
// per template block, decoded when an SPU first reaches the block, and
// the issue schedules of its runs, each worked out when a kernel window
// first reaches the run's entry pc (see run). A machine's SPUs share
// one. The tables are carved from arenas that binding another
// program rewinds and does not free.
type Code struct {
	cfg   Config
	prog  *program.Program
	tab   []decoded // by tmpl*NumBlocks + block; zero until decoded
	arena []uop
	runAt []int32 // in step with arena: the blocks' decoded.runAt
	runs  []run
	regs  []regOff // the runs' live-ins and results
	costs []cost   // the runs' instructions' cycles
	outs  []regOff // schedule's scratch
	addrs []int64  // a run step's local-store addresses (runPrivate's scratch)
}

// decoded is one template block's tables: its uops and, per pc, 1 + the
// index in Code.runs of the run entered there (0 until scheduled, -1
// where the run would be a lone instruction).
type decoded struct {
	uops  []uop
	runAt []int32
}

// NewCode returns an empty decode table for pipelines configured by cfg.
func NewCode(cfg Config) *Code { return &Code{cfg: cfg} }

// Bind readies the table for prog. Binding the program it already holds
// keeps every block decoded and every run scheduled so far.
func (c *Code) Bind(prog *program.Program) {
	if prog == c.prog {
		return
	}
	c.prog = prog
	n := len(prog.Templates) * int(program.NumBlocks)
	c.tab = slices.Grow(c.tab[:0], n)[:n]
	clear(c.tab)
	c.arena = c.arena[:0]
	c.runAt = c.runAt[:0]
	c.runs = c.runs[:0]
	c.regs = c.regs[:0]
	c.costs = c.costs[:0]
}

// block returns (decoding on first use) the tables of one template code
// block.
func (c *Code) block(tmpl int, blk program.BlockKind) (uops []uop, runAt []int32) {
	idx := tmpl*int(program.NumBlocks) + int(blk)
	d := c.tab[idx]
	if d.uops == nil {
		d = c.decode(c.prog.Templates[tmpl].Blocks[blk])
		c.tab[idx] = d
	}
	return d.uops, d.runAt
}

// decode decodes one code block. It is the single place the static
// instruction metadata (operand format, issue slot, unit latency, burst
// class) is consulted; the per-cycle paths read only the resulting
// uops.
func (c *Code) decode(code []isa.Instruction) decoded {
	d := c.carve(len(code))
	us := d.uops
	for i, ins := range code {
		info := isa.InfoOf(ins.Op)
		u := &us[i]
		*u = uop{ins: ins} // recycled memory: set every field
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
		switch isa.ClassOf(ins.Op) {
		case isa.BurstReg:
			u.flags |= uopReg
		case isa.BurstLS:
			u.flags |= uopLS
		}
		u.lat = int32(c.cfg.latFor(info.Unit))
	}
	return d
}

// carve takes n uops and their run entries off the arenas' tails. When
// an arena has to grow it moves to a new backing array; tables carved
// before keep the old one, which only their own block writes again.
func (c *Code) carve(n int) decoded {
	used := len(c.arena)
	c.arena = slices.Grow(c.arena, n)[:used+n]
	c.runAt = slices.Grow(c.runAt, n)[:used+n]
	d := decoded{uops: c.arena[used:], runAt: c.runAt[used:]}
	clear(d.runAt) // recycled memory
	return d
}

// Name implements sim.Component.
func (s *SPU) Name() string { return fmt.Sprintf("spu%d", s.spe) }

// Attach stores the engine wake handle.
func (s *SPU) Attach(h *sim.Handle) { s.handle = h }

// Wake prods the SPU (used by the LSE's OnWork callback).
func (s *SPU) Wake(now sim.Cycle) {
	if s.handle != nil {
		s.handle.Wake(now)
	}
}

// Stats returns the statistics; the cycle and instruction counts are
// those Finalize folded from the profile.
func (s *SPU) Stats() stats.SPU { return s.st }

// Reset returns the pipeline to its post-construction state for
// machine reuse; the machine rebinds the shared Code to the next
// program. Wiring (Fault, Magic, handle) is kept.
func (s *SPU) Reset() {
	for i := range s.regs {
		s.regs[i], s.ready[i], s.prod[i] = 0, 0, prodNone
	}
	s.cur, s.curKind = nil, dta.WorkNone
	s.block = 0
	s.pc = 0
	s.uops, s.runAt, s.row0 = nil, nil, 0
	s.ph = phIdle
	s.gapCause = stats.CauseIdle
	s.gapRow = 0
	s.accounted = 0
	s.nextIssueAt = 0
	s.resumeAt = 0
	s.readDst = 0
	s.reqSeq = 0
	s.fallocRd = 0
	s.resp = readResp{}
	s.unitStart = 0
	s.st = stats.SPU{}
	clear(s.steps)
}

// Finalize charges the trailing sleep gap up to end (call once when the
// run stops) and the run steps, folds the SPU's cycle and instruction
// counts from the profile and records the run length.
func (s *SPU) Finalize(end sim.Cycle) {
	s.account(end)
	s.ChargeRuns()
	s.Prof.Fold(s.spe, s.code.prog, &s.st)
	s.st.Cycles = int64(end)
}

// account charges the sleep gap [s.accounted, now) to gapCause at
// gapRow — the row of the instruction that entered the wait (or the
// idle row).
func (s *SPU) account(now sim.Cycle) {
	if now > s.accounted {
		s.Prof.Add(s.spe, s.gapRow, s.gapCause, int64(now-s.accounted))
		s.accounted = now
	}
}

// chargeCycle attributes the single cycle `now` to cause c at row.
func (s *SPU) chargeCycle(now sim.Cycle, c stats.Cause, row int) {
	s.account(now)
	if s.accounted == now {
		s.Prof.Add(s.spe, row, c, 1)
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

// DeliverAt implements noc.Endpoint. The only message an SPU
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

// Undelivered implements noc.Endpoint.
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
	s.enter()
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
	s.enter()
	s.pc = 0
	return true
}

// enter makes the current thread's block s.block the one that issues:
// its tables and its profile row.
func (s *SPU) enter() {
	s.uops, s.runAt = s.code.block(s.cur.Template, s.block)
	s.row0 = s.Prof.Row(s.cur.Template, s.block)
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

// row returns the profile row of the current pc (the idle row, 0, when
// no work unit is resident).
func (s *SPU) row() int {
	if s.cur == nil {
		return 0
	}
	return s.row0 + s.pc
}

// Tick simulates the pipeline cycle at now through the reference path
// and then, unless Config.BurstMax is 1, a kernel window of up to
// burstLimit-1 further cycles (see burst), and returns the first cycle
// not yet simulated so the engine skips the pre-executed ones. The
// window steps over a run of compute and local-store instructions in one
// go when the run's live-ins are ready by the cycles its schedule
// assumes, its local-store bytes are private and it ends before the
// window's limit; otherwise it takes, one at a time through
// issueCycle, each cycle whose register-only instruction issues alone,
// with the same result and the same guest profile, and ends at any
// other cycle.
//
// What may run ahead of the engine clock: register-only compute and
// branches (isa.BurstReg — nothing another component can observe)
// always; local-store reads (LSRD*/LOAD*) and direct local-store writes
// (LSWR*) (isa.BurstLS) inside a run step, when the bytes accessed are
// private (see private): no live MFC command's range overlaps them, and
// they lie outside the frame region or in the running thread's own
// frame. Nothing else can write those bytes, or read a write landed
// early, at any cycle before the window ends, so an access simulated at
// engine-time now is byte- and cycle-identical to one executed at its
// own cycle, however far ahead that is. Any other access ends the window
// before its cycle, and so does a cycle in which it could issue beside
// a register-only instruction (see alone).
//
// Caveat (documented, not observable in well-formed DTA activities):
// window cycles are simulated eagerly, so if the whole activity
// completes while this SPU is inside a window, the final statistics
// include the window's cycles beyond the stop cycle. DTA programs end
// with a join — every SPU is quiescent when the last token posts — and
// the differential suite asserts exact burst == single-step identity
// across the synth corpus, the paper experiments and the machine tests.
// Similarly, a Config.MaxCycles abort may be detected up to burstLimit
// cycles later than in single-step mode.
func (s *SPU) Tick(now sim.Cycle) sim.Cycle {
	if now < s.resumeAt {
		// An early wake (e.g. the LSE's OnWork) landed inside a burst
		// window whose cycles are already simulated; sleep to its end.
		// Running-thread execution never depends on wakes.
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
			s.gapRow = 0
			return sim.Never
		}
	case phRun:
		if s.cur == nil && !s.dispatch(now) {
			s.account(now)
			s.ph = phIdle
			s.gapCause = stats.CauseIdle
			s.gapRow = 0
			return sim.Never
		}
	}
	// The reference cycle: the one pipeline cycle on the engine clock,
	// where anything may execute. It attributes to the PC it started at —
	// the first instruction considered (issued or blocked).
	row := s.row()
	if now < s.nextIssueAt {
		// Dispatch refill, branch bubble, or MFC channel busy.
		s.chargeCycle(now, s.causeFor(stats.CauseBubble), row)
	} else {
		cause, sleep := s.issueCycle(now)
		s.chargeCycle(now, cause, row)
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
		row := s.row0 + s.pc // execute may move the pc, the block or the thread
		ok, sleep, cause := s.execute(now, ins, u)
		if !ok {
			// Structural stall outside the pipeline (LSE/MFC full).
			if issued == 0 {
				cycleCause = s.causeFor(cause)
			}
			break
		}
		issued++
		s.Prof.AddInstr(s.spe, row, 1)
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

func (c Config) latFor(u isa.Unit) sim.Cycle {
	switch u {
	case isa.UnitSH:
		return sim.Cycle(c.LatSH)
	case isa.UnitMUL:
		return sim.Cycle(c.LatMUL)
	case isa.UnitDIV:
		return sim.Cycle(c.LatDIV)
	}
	return sim.Cycle(c.LatFX)
}

// execute performs one instruction. ok=false means a structural stall
// (retry next cycle, pc unchanged) with the raw stall cause; sleep=true
// means the SPU enters a blocking wait (pc already advanced, gapCause
// and gapRow set to attribute the coming sleep gap). u.lat carries the
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

	case isa.LOAD, isa.LOADX, isa.LSRD, isa.LSRD8, isa.LSRDX, isa.LSRDX8,
		isa.LSWR, isa.LSWR8, isa.LSWRX, isa.LSWRX8:
		addr, _, err := s.lsAddr(&ins, r(ins.Ra), r(ins.Rb))
		if err == nil {
			err = s.lsAccess(now, &ins, addr)
		}
		if err != nil {
			s.Fault(err)
			return true, false, stats.CauseIssue
		}
		adv()

	case isa.STORE, isa.STOREX:
		if !s.lse.CanAccept(now) {
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
		s.gapRow = s.row()
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

	case isa.FALLOC, isa.FALLOCX:
		if !s.lse.CanAccept(now) {
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
		s.gapRow = s.row()
		adv()
		return true, true, stats.CauseIssue

	case isa.FFREE:
		if !s.lse.CanAccept(now) {
			return false, false, stats.CauseLSEBackpressure
		}
		s.lse.Ffree(now, s.cur)
		adv()

	case isa.STOP:
		if !s.lse.CanAccept(now) {
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

// lsAddr resolves the local-store address and width of access ins
// (LOAD*, LSRD*, LSWR*) from its register operands ra and rb. A frame
// load reads slot Imm (LOADX: ra) of the running thread's frame, and a
// slot outside the frame is an error. The thread holds its frame
// whenever a LOAD issues: LOAD is legal only in PF and PL, and FFREE,
// which lets the LSE release the frame, only in PS (program.legalIn).
func (s *SPU) lsAddr(ins *isa.Instruction, ra, rb int64) (addr, width int64, err error) {
	addr, width = ra+int64(ins.Imm), 8
	switch ins.Op {
	case isa.LOAD, isa.LOADX:
		slot := int64(ins.Imm)
		if ins.Op == isa.LOADX {
			slot = ra
		}
		if slot < 0 || slot >= program.MaxFrameSlots {
			return 0, 0, fmt.Errorf("spu%d: frame load slot %d", s.spe, slot)
		}
		addr = s.lse.FrameAddr(s.cur.Slot) + slot*8
	case isa.LSRD, isa.LSWR:
		width = 4
	case isa.LSRDX, isa.LSWRX:
		addr, width = addr+rb, 4
	case isa.LSRDX8, isa.LSWRX8:
		addr += rb
	}
	return addr, width, nil
}

// lsAccess executes the local-store or frame access ins to addr at
// cycle now; it does not advance pc. It returns the store's error, with
// nothing executed, when the bytes lie outside the store.
func (s *SPU) lsAccess(now sim.Cycle, ins *isa.Instruction, addr int64) error {
	read, err := s.lsData(ins, addr)
	if err != nil {
		return err
	}
	if ready := s.store.Access(ls.PortSPU, now, 8); read && ins.Rd != isa.RegZero {
		s.ready[ins.Rd], s.prod[ins.Rd] = ready, prodLS
	}
	return nil
}

// lsData moves the bytes of the local-store or frame access ins to
// addr: a write stores its value register Rd, a read loads Rd (RegZero
// discards it). It reports whether ins reads, and returns the store's
// error, with nothing moved, when the bytes lie outside the store.
func (s *SPU) lsData(ins *isa.Instruction, addr int64) (read bool, err error) {
	var v int64
	switch ins.Op {
	case isa.LSWR, isa.LSWRX:
		return false, s.store.Write32(addr, s.regs[ins.Rd])
	case isa.LSWR8, isa.LSWRX8:
		return false, s.store.Write64(addr, s.regs[ins.Rd])
	case isa.LSRD, isa.LSRDX:
		v, err = s.store.Read32(addr)
	default:
		v, err = s.store.Read64(addr)
	}
	if err == nil && ins.Rd != isa.RegZero {
		s.regs[ins.Rd] = v
	}
	return true, err
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
