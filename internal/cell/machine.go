package cell

import (
	"fmt"

	"repro/internal/dta"
	"repro/internal/ls"
	"repro/internal/mem"
	"repro/internal/mfc"
	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/spu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SPE bundles one processing element's components.
type SPE struct {
	Index int
	SPU   *spu.SPU
	LSE   *dta.LSE
	MFC   *mfc.Engine
	LS    *ls.LocalStore
	Alloc *ls.Allocator
}

// Machine is a fully wired CellDTA system ready to run one program.
type Machine struct {
	cfg    Config
	prog   *program.Program
	eng    *sim.Engine
	net    *noc.Network
	memory *mem.Memory
	spes   []*SPE
	dses   []*dta.DSE
	ppe    *PPE
	tracer *trace.Buffer
	rec    *trace.Recorder // non-nil when cfg.Record
	prof   *stats.Profile  // non-nil when cfg.Profile; shared by all SPUs

	faultErr error
	drained  bool      // the one-shot post-completion DMA drain has run
	endAt    sim.Cycle // cycle the run finished at (valid after StepDone)
	knobbed  bool      // ApplyKnobs diverged a parameter from cfg (Reset clears)
}

// Layout describes where the machine placed things in each local store.
type Layout struct {
	CodeBytes  int
	FrameBase  int
	FrameBytes int
	HeapBase   int
	HeapBytes  int
}

// splitFPForRouting decodes an FP for the PPE (kept here to avoid the
// PPE importing dta directly in its hot path).
func splitFPForRouting(fp int64) (spe, slot int, err error) {
	return dta.SplitFP(fp)
}

// magicMem adapts the sparse store to the SPU's perfect-cache backdoor
// (used only by the paper's §4.3 always-hit study).
type magicMem struct{ s *mem.Sparse }

func (m magicMem) MagicRead(addr int64, width int) (int64, error) {
	if width == 4 {
		return m.s.Read32(addr)
	}
	return m.s.Read64(addr)
}

func (m magicMem) MagicWrite(addr int64, v int64, width int) error {
	if width == 4 {
		return m.s.Write32(addr, v)
	}
	return m.s.Write64(addr, v)
}

// New builds a machine for prog. The program must already be validated
// (and transformed, when prefetching is wanted).
func New(cfg Config, prog *program.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	layout, err := planLayout(cfg, prog)
	if err != nil {
		return nil, err
	}

	m := &Machine{cfg: cfg, prog: prog, eng: sim.NewEngine()}
	if cfg.Record {
		m.rec = trace.NewRecorder(cfg.RecordCap)
		m.tracer = m.rec.Threads
	} else if cfg.TraceCap > 0 {
		m.tracer = trace.NewBuffer(cfg.TraceCap)
	}
	if cfg.Profile {
		// One shared store: the engine is single-threaded and the profile
		// aggregates across SPEs (per-PC attribution is program-relative).
		m.prof = stats.NewProfile()
	}
	m.net = noc.New(cfg.Noc)
	m.net.Rec = m.rec
	netHandle := m.eng.Register(m.net)
	if netHandle.ID() != 0 {
		// noc.Network.Send reads the arbitration-queue depth off the send
		// cycle, which is exact only if the network has ticked before any
		// sender in a cycle.
		panic("cell: the network must be the engine's first component")
	}
	m.net.Attach(netHandle)

	m.memory = mem.New(cfg.Mem, cfg.memEP(), m.net)
	memHandle := m.eng.Register(m.memory)
	m.memory.Attach(memHandle)
	m.net.RegisterTimed(cfg.memEP(), m.memory)
	m.memory.Fault = m.fail

	lseEP := cfg.lseEP

	// SPEs: LSE ticks before SPU so same-cycle dispatches work. The
	// registration order is also a correctness contract of the SPU's
	// local-store read bursts: every component whose Tick can touch a
	// local store (the network delivering DMA data into it, the LSE
	// writing frames, the MFC streaming PUTs out of it) is registered
	// BEFORE the SPE's SPU, so a same-cycle store is always visible to
	// the SPU's issue at that cycle, and the SPU only ever pre-executes
	// strictly-future local-store reads under the horizon it gets from
	// the engine plus the SetLSWriters wiring below.
	for i := 0; i < cfg.SPEs; i++ {
		store := ls.New(cfg.LS)
		alloc := ls.NewAllocator(layout.HeapBase, layout.HeapBytes)
		lseUnit := dta.NewLSE(cfg.LSE, lseEP(i), i, cfg.dseEP(cfg.nodeOf(i)), cfg.ppeEP(),
			m.net, store, alloc, int64(layout.FrameBase), prog, lseEP)
		lseHandle := m.eng.Register(lseUnit)
		lseUnit.Attach(lseHandle)
		m.net.Register(lseEP(i), lseUnit)
		lseUnit.Fault = m.fail
		lseUnit.Trace = m.tracer

		dmaEng := mfc.New(cfg.MFC, cfg.mfcEP(i), cfg.memEP(), m.net, store)
		mfcHandle := m.eng.Register(dmaEng)
		dmaEng.Attach(mfcHandle)
		m.net.Register(cfg.mfcEP(i), dmaEng)
		dmaEng.Fault = m.fail
		dmaEng.Rec = m.rec
		dmaEng.RecSPE = i

		pipe := spu.New(cfg.SPU, cfg.spuEP(i), i, cfg.memEP(), m.net, lseUnit,
			dmaEng, store, prog)
		pipe.Attach(m.eng.Register(pipe))
		m.net.RegisterTimed(cfg.spuEP(i), pipe)
		pipe.Fault = m.fail
		pipe.Rec = m.rec
		pipe.Prof = m.prof
		// The only components that ever hold a reference to this SPE's
		// local store are its LSE, its MFC and its SPU (see the
		// constructor calls above) — plus the network, during whose
		// Tick the MFC's and LSE's Deliver calls arrive. Everything
		// else (other SPEs, the DSEs, the PPE, main memory) reaches
		// this store only through a network message, which takes at
		// least MinDeliveryLatency cycles from the sender's tick. The
		// touch group narrows the network term further: only deliveries
		// addressed to this SPE's MFC or LSE matter.
		m.net.DeclareTouchGroup(i, cfg.mfcEP(i), lseEP(i))
		pipe.SetLSWiring(spu.LSWiring{
			LSEID: lseHandle.ID(), MFCID: mfcHandle.ID(), MemID: memHandle.ID(),
			TouchGroup: i,
			ChainLat:   cfg.Noc.MinDeliveryLatency(),
		})

		// Cross-wiring.
		lseUnit.OnWork = pipe.Wake
		lseUnit.OnFallocResp = pipe.OnFallocResp
		lseUnit.Outstanding = dmaEng.Outstanding
		dmaEng.OnTagIdle = lseUnit.TagIdle
		pipe.Magic = magicMem{m.memory.Store()}

		if err := loadCode(store, prog); err != nil {
			return nil, err
		}
		m.spes = append(m.spes, &SPE{
			Index: i, SPU: pipe, LSE: lseUnit, MFC: dmaEng, LS: store, Alloc: alloc,
		})
	}

	// DSEs (one per node) with a forwarding ring between nodes.
	for n := 0; n < cfg.Nodes; n++ {
		perNode := cfg.SPEs / cfg.Nodes
		var eps []int
		for i := n * perNode; i < (n+1)*perNode; i++ {
			eps = append(eps, lseEP(i))
		}
		var peers []int
		for k := 1; k < cfg.Nodes; k++ {
			peers = append(peers, cfg.dseEP((n+k)%cfg.Nodes))
		}
		d := dta.NewDSE(cfg.DSE, cfg.dseEP(n), n, m.net, eps, cfg.LSE.NumFrames, peers)
		d.Attach(m.eng.Register(d))
		m.net.Register(cfg.dseEP(n), d)
		m.dses = append(m.dses, d)
	}

	// PPE last: it observes the cycle's traffic before deciding to stop.
	m.ppe = NewPPE(cfg.ppeEP(), cfg.dseEP(0), lseEP, m.net, m.eng,
		prog.Entry, prog.EntryArgs, prog.ExpectTokens)
	m.ppe.Attach(m.eng.Register(m.ppe))
	m.net.Register(cfg.ppeEP(), m.ppe)
	m.ppe.Fault = m.fail

	// Initial memory image.
	for _, seg := range prog.Segments {
		if err := m.memory.Store().WriteBytes(seg.Addr, seg.Data); err != nil {
			return nil, fmt.Errorf("cell: loading segment at %#x: %w", seg.Addr, err)
		}
	}
	return m, nil
}

// Config returns the machine's configuration (the pool key for reuse).
func (m *Machine) Config() Config { return m.cfg }

// Reset restores a built machine to its initial state for prog,
// amortising construction across runs: all components rewind to their
// post-New state (statistics cleared, queues emptied, stores zeroed —
// with their backing memory kept), the new program's code and segments
// are loaded, and the engine reschedules everything at cycle 0. The
// configuration is fixed at construction; only the program may change.
// A Reset machine is indistinguishable from a newly built one — the
// differential tests in internal/cell assert run-for-run identity.
func (m *Machine) Reset(prog *program.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	layout, err := planLayout(m.cfg, prog)
	if err != nil {
		return err
	}
	m.prog = prog
	m.faultErr = nil
	m.drained = false
	m.endAt = 0
	if m.knobbed {
		// ApplyKnobs diverged run-time parameters from the construction
		// configuration; restore them so a pooled machine keyed by cfg
		// behaves exactly like a freshly built one.
		m.memory.SetLatency(m.cfg.Mem.Latency)
		for _, spe := range m.spes {
			spe.MFC.SetCmdLatency(m.cfg.MFC.CmdLatency)
		}
		m.knobbed = false
	}
	if m.cfg.Record {
		m.rec.Reset()
		m.tracer = m.rec.Threads
	} else if m.cfg.TraceCap > 0 {
		m.tracer = trace.NewBuffer(m.cfg.TraceCap)
	}
	// Pool safety: a reused machine must not leak the previous run's
	// samples (Reset keeps the component wiring, clears the store).
	m.prof.Reset()
	m.net.Reset()
	m.memory.Reset()
	for _, spe := range m.spes {
		spe.LS.Reset()
		spe.Alloc.Reset(layout.HeapBase, layout.HeapBytes)
		spe.LSE.Reset(prog, int64(layout.FrameBase))
		spe.LSE.Trace = m.tracer
		spe.MFC.Reset()
		spe.SPU.Reset(prog)
		if err := loadCode(spe.LS, prog); err != nil {
			return err
		}
	}
	for _, d := range m.dses {
		d.Reset(m.cfg.LSE.NumFrames)
	}
	m.ppe.Reset(prog.Entry, prog.EntryArgs, prog.ExpectTokens)
	for _, seg := range prog.Segments {
		if err := m.memory.Store().WriteBytes(seg.Addr, seg.Data); err != nil {
			return fmt.Errorf("cell: loading segment at %#x: %w", seg.Addr, err)
		}
	}
	m.eng.Reset()
	return nil
}

// planLayout computes the local-store map and checks capacities.
func planLayout(cfg Config, prog *program.Program) (Layout, error) {
	codeBytes := (prog.CodeLen()*8 + 255) &^ 255
	frameBytes := cfg.LSE.NumFrames * dta.FrameBytes
	heapBase := codeBytes + frameBytes
	heapBytes := cfg.LS.SizeBytes - heapBase
	if heapBytes < 0 {
		return Layout{}, fmt.Errorf("cell: local store too small: code %d + frames %d > %d",
			codeBytes, frameBytes, cfg.LS.SizeBytes)
	}
	if maxPF := prog.MaxPrefetchBytes(); maxPF > heapBytes {
		return Layout{}, fmt.Errorf("cell: prefetch buffer %d B exceeds heap %d B",
			maxPF, heapBytes)
	}
	return Layout{
		CodeBytes: codeBytes, FrameBase: codeBytes,
		FrameBytes: frameBytes, HeapBase: heapBase, HeapBytes: heapBytes,
	}, nil
}

// loadCode materialises the program's encoded instructions in the LS
// code region (the SPU fetches from the template structures; the bytes
// make the layout faithful and debuggable).
func loadCode(store *ls.LocalStore, prog *program.Program) error {
	addr := int64(0)
	for _, t := range prog.Templates {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			for _, ins := range t.Blocks[k] {
				if err := store.Write64(addr, int64(ins.Encode())); err != nil {
					return fmt.Errorf("cell: code overflows local store at %#x", addr)
				}
				addr += 8
			}
		}
	}
	return nil
}

// dmaBusy reports whether any MFC still has commands queued or in
// flight.
func (m *Machine) dmaBusy() bool {
	for _, spe := range m.spes {
		if spe.MFC.Busy() {
			return true
		}
	}
	return false
}

func (m *Machine) fail(err error) {
	if m.faultErr == nil {
		m.faultErr = err
	}
	m.eng.Stop()
}

// Result is the outcome of one run.
type Result struct {
	Cycles   sim.Cycle
	Tokens   []int64
	SPUs     []stats.SPU
	Agg      stats.SPU // sum over SPUs
	LSEs     []dta.LSEStats
	MFCs     []mfc.Stats
	DSEs     []dta.DSEStats
	Mem      mem.Stats
	Net      noc.Stats
	Trace    *trace.Buffer   // non-nil when Config.TraceCap > 0 or Config.Record
	Rec      *trace.Recorder // non-nil when Config.Record
	Prof     *stats.Profile  // non-nil when Config.Profile (guest cycle profile)
	CheckErr error           // result of the program's functional check
}

// AvgBreakdownPct returns the average SPU breakdown in percent (the
// paper's Figure 5 view).
func (r *Result) AvgBreakdownPct() [stats.NumBuckets]float64 {
	var out [stats.NumBuckets]float64
	total := r.Agg.Breakdown.Total()
	if total == 0 {
		return out
	}
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		out[b] = 100 * float64(r.Agg.Breakdown[b]) / float64(total)
	}
	return out
}

// PipelineUsage returns the machine-wide issue-slot utilisation.
func (r *Result) PipelineUsage() float64 { return r.Agg.PipelineUsage() }

// StepStatus reports how far Step got.
type StepStatus uint8

const (
	// StepBudget: the budget elapsed with the run still in progress —
	// call Step again (typically after advancing sibling machines).
	StepBudget StepStatus = iota
	// StepDone: the run completed (including the post-completion DMA
	// drain); call Finish to assemble the Result.
	StepDone
)

// Step advances the simulation by at most budget cycles and reports
// whether the run completed. It is the bounded-slice form of Run: a
// sequence of Step calls executes the exact same engine schedule as a
// single Run — slice boundaries land on natural event cycles (see
// sim.Engine.RunUntil) and no machine state observes them — so batched,
// interleaved machines stay byte-identical to run-to-completion ones.
// Faults, deadlocks and the Config.MaxCycles limit return errors
// exactly as Run does; after an error the machine must not be stepped
// further.
func (m *Machine) Step(budget sim.Cycle) (StepStatus, error) {
	until := m.eng.Now() + budget
	if until < m.eng.Now() { // saturate (budget == sim.Never: unbounded)
		until = sim.Never
	}
	return m.StepUntil(until)
}

// NextEvent returns the cycle of the machine's earliest pending engine
// event (sim.Never when quiescent) — the virtual-time key a
// horizon-aware batch scheduler orders paused machines by.
func (m *Machine) NextEvent() sim.Cycle { return m.eng.NextEvent() }

// StepUntil is the absolute-cycle form of Step: it advances the
// simulation until the next event would run at a cycle >= until and
// reports whether the run completed. The same fidelity contract as Step
// applies — the boundary lands on a natural event cycle, so any
// sequence of StepUntil calls replays an unbounded Run exactly.
func (m *Machine) StepUntil(until sim.Cycle) (StepStatus, error) {
	limit := sim.Never
	if m.cfg.MaxCycles > 0 {
		limit = m.cfg.MaxCycles
	}
	for {
		u := until
		if limit < u {
			u = limit
		}
		end, st := m.eng.RunUntil(u)
		switch st {
		case sim.RunStopped:
			if m.faultErr != nil {
				return 0, fmt.Errorf("cell: machine fault at cycle %d: %w", end, m.faultErr)
			}
			if !m.drained && m.ppe.Done() && m.dmaBusy() {
				// The activity completed but write-back DMA is still in
				// flight: drain it so the memory image is final (runs
				// until quiescent).
				m.drained = true
				m.eng.Resume()
				continue
			}
			m.endAt = end
			return StepDone, nil
		case sim.RunQuiescent:
			if m.ppe.Done() {
				// All tokens arrived and the system drained: a benign end.
				m.endAt = end
				return StepDone, nil
			}
			return 0, m.eng.DeadlockError()
		default: // sim.RunBudget
			if end >= limit {
				return 0, &sim.ErrLimit{Limit: m.cfg.MaxCycles}
			}
			return StepBudget, nil
		}
	}
}

// Finish gathers statistics after Step returned StepDone.
func (m *Machine) Finish() (*Result, error) {
	end := m.endAt
	res := &Result{Cycles: end, Tokens: m.ppe.Tokens(), Mem: m.memory.Stats(),
		Net: m.net.Stats(), Trace: m.tracer, Rec: m.rec, Prof: m.prof,
		SPUs: make([]stats.SPU, 0, len(m.spes)), LSEs: make([]dta.LSEStats, 0, len(m.spes)),
		MFCs: make([]mfc.Stats, 0, len(m.spes)), DSEs: make([]dta.DSEStats, 0, len(m.dses))}
	for _, spe := range m.spes {
		spe.SPU.Finalize(end)
		st := spe.SPU.Stats()
		res.SPUs = append(res.SPUs, st)
		res.Agg.Merge(st)
		res.LSEs = append(res.LSEs, spe.LSE.Stats())
		res.MFCs = append(res.MFCs, spe.MFC.Stats())
	}
	for _, d := range m.dses {
		res.DSEs = append(res.DSEs, d.Stats())
	}
	if m.prog.Check != nil {
		res.CheckErr = m.prog.Check(mem.Reader{S: m.memory.Store()}, res.Tokens)
	}
	return res, nil
}

// Run executes the program to completion and gathers statistics.
func (m *Machine) Run() (*Result, error) {
	if _, err := m.Step(sim.Never); err != nil {
		return nil, err
	}
	return m.Finish()
}

// DefaultSlice is the RunSliced budget applied when the caller passes
// slice <= 0: long enough to amortise the scheduling round-trip, short
// enough that a batch of K machines cycles through its working sets
// instead of running one to completion.
const DefaultSlice sim.Cycle = 1 << 16

// RunSliced executes the program to completion in bounded slices,
// calling yield between slices so a cooperative scheduler can advance
// sibling machines. The result is byte-identical to Run — only the
// caller's interleaving across machines changes.
func (m *Machine) RunSliced(slice sim.Cycle, yield func()) (*Result, error) {
	if slice <= 0 {
		slice = DefaultSlice
	}
	for {
		st, err := m.Step(slice)
		if err != nil {
			return nil, err
		}
		if st == StepDone {
			return m.Finish()
		}
		yield()
	}
}

// RunScheduled executes the program to completion under a horizon-aware
// scheduler: before each slice it reports the machine's next pending
// event cycle to sched (parking the caller's fiber until the scheduler
// picks it again) and receives the batch horizon — the cycle at which a
// sibling machine is next due. The slice then runs to the horizon, but
// at least floor cycles past the current point (floor <= 0 selects
// DefaultSlice) so machines with interleaved event streams don't
// ping-pong cycle by cycle; a horizon of sim.Never runs to completion.
// The result is byte-identical to Run — the horizon only sizes slices,
// and slice boundaries land on natural event cycles (see Step).
func (m *Machine) RunScheduled(floor sim.Cycle, sched func(next sim.Cycle) sim.Cycle) (*Result, error) {
	if floor <= 0 {
		floor = DefaultSlice
	}
	for {
		horizon := sched(m.NextEvent())
		until := m.eng.Now() + floor
		if until < m.eng.Now() { // overflow: saturate
			until = sim.Never
		}
		if horizon > until {
			until = horizon
		}
		st, err := m.StepUntil(until)
		if err != nil {
			return nil, err
		}
		if st == StepDone {
			return m.Finish()
		}
	}
}

// ComponentTicks is one engine component's event count for a run.
type ComponentTicks struct {
	Name  string // sim.Component.Name: "noc", "memory", "lse0", "spu0", ...
	Ticks int64
}

// ComponentTicks returns, in engine registration order, how many times
// each component was ticked since the machine was built, Reset or
// restored. It is what a run cost the host in engine events — the
// measure the perf ledger in EXPERIMENTS.md is kept in — and says
// nothing about the simulated machine, so it stays out of Result and of
// every encoded form of it.
func (m *Machine) ComponentTicks() []ComponentTicks {
	out := make([]ComponentTicks, m.eng.NumComponents())
	for i := range out {
		out[i] = ComponentTicks{Name: m.eng.ComponentName(int32(i)), Ticks: m.eng.Ticks(int32(i))}
	}
	return out
}

// MemReader exposes the post-run memory image.
func (m *Machine) MemReader() program.MemReader { return mem.Reader{S: m.memory.Store()} }

// SPEs exposes the machine's processing elements (for tests and tools).
func (m *Machine) SPEs() []*SPE { return m.spes }

// MemSparse exposes the functional backing store of main memory (for
// whole-image comparison by the synth differential checker).
func (m *Machine) MemSparse() *mem.Sparse { return m.memory.Store() }
