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
	code   *spu.Code // prog decoded once, read by every SPU
	eng    *sim.Engine
	net    *noc.Network
	memory *mem.Memory
	spes   []*SPE
	dses   []*dta.DSE
	ppe    *PPE
	rec    *trace.Recorder // non-nil when cfg.Record
	prof   *stats.Profile  // the guest profile, shaped for prog; shared by all SPUs

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

// New validates cfg and builds a machine for prog, which must be sealed
// (and transformed, when prefetching is wanted).
func New(cfg Config, prog *program.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !prog.Sealed() {
		return nil, program.ErrNotSealed
	}
	layout, err := planLayout(cfg, prog)
	if err != nil {
		return nil, err
	}

	m := &Machine{cfg: cfg, prog: prog, code: spu.NewCode(cfg.SPU), eng: sim.NewEngine(),
		prof: new(stats.Profile)}
	m.code.Bind(prog)
	m.prof.Shape(prog, cfg.SPEs)
	if cfg.Record {
		m.rec = trace.NewRecorder()
	}
	m.net = noc.New(cfg.Noc)
	m.net.Rec = m.rec

	// The PPE is the engine's first component. It acts on a message on
	// its delivery cycle, so first in that cycle's pass: it stores the
	// root frame's arguments before any other component sends on the
	// cycle, and its Stop on the last mailbox post ends the run before
	// any other component ticks on the stop cycle.
	m.ppe = NewPPE(cfg.ppeEP(), cfg.dseEP(0), cfg.lseEP, m.net, m.eng,
		prog.Entry, prog.EntryArgs, prog.ExpectTokens)
	m.ppe.Attach(m.eng.Register(m.ppe))
	m.net.Register(cfg.ppeEP(), m.ppe)
	m.ppe.Fault = m.fail

	m.memory = mem.New(cfg.Mem, cfg.memEP(), m.net)
	m.memory.Attach(m.eng.Register(m.memory))
	m.net.Register(cfg.memEP(), m.memory)
	m.memory.Fault = m.fail

	lseEP := cfg.lseEP

	// SPEs: LSE ticks before SPU so same-cycle dispatches work. The
	// registration order also makes a same-cycle local-store write by
	// the LSE (a frame store) or the MFC (DMA data on its delivery
	// cycle, a PUT packet read) visible to the SPU's issue at that
	// cycle. The SPU runs local-store accesses ahead of the engine clock
	// only on bytes none of them can touch meanwhile (spu.SPU.private).
	for i := 0; i < cfg.SPEs; i++ {
		store := ls.New(cfg.LS)
		alloc := ls.NewAllocator(layout.HeapBase, layout.HeapBytes)
		lseUnit := dta.NewLSE(cfg.LSE, lseEP(i), i, cfg.dseEP(cfg.nodeOf(i)), cfg.ppeEP(),
			m.net, store, alloc, int64(layout.FrameBase), prog, lseEP)
		lseUnit.Attach(m.eng.Register(lseUnit))
		m.net.Register(lseEP(i), lseUnit)
		lseUnit.Fault = m.fail
		lseUnit.Rec = m.rec

		dmaEng := mfc.New(cfg.MFC, cfg.mfcEP(i), cfg.memEP(), m.net, store)
		dmaEng.Attach(m.eng.Register(dmaEng))
		m.net.Register(cfg.mfcEP(i), dmaEng)
		dmaEng.Fault = m.fail
		dmaEng.Rec = m.rec
		dmaEng.RecSPE = i

		pipe := spu.New(m.code, cfg.spuEP(i), i, cfg.memEP(), m.net, lseUnit, dmaEng, store)
		pipe.Attach(m.eng.Register(pipe))
		m.net.Register(cfg.spuEP(i), pipe)
		pipe.Fault = m.fail
		pipe.Rec = m.rec
		pipe.Prof = m.prof

		// Cross-wiring.
		lseUnit.OnWork = pipe.Wake
		lseUnit.OnFallocResp = pipe.OnFallocResp
		lseUnit.Outstanding = dmaEng.Outstanding
		dmaEng.OnTagIdle = lseUnit.TagIdle
		pipe.Magic = magicMem{m.memory.Store()}

		m.spes = append(m.spes, &SPE{
			Index: i, SPU: pipe, LSE: lseUnit, MFC: dmaEng, LS: store, Alloc: alloc,
		})
	}
	if err := m.loadCode(); err != nil {
		return nil, err
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
// differential tests in internal/cell assert run-for-run identity. A
// program New would refuse is refused before anything is reset.
func (m *Machine) Reset(prog *program.Program) error {
	if !prog.Sealed() {
		return program.ErrNotSealed
	}
	layout, err := planLayout(m.cfg, prog)
	if err != nil {
		return err
	}
	m.prog = prog
	m.code.Bind(prog)
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
	m.rec.Reset()
	m.prof.Shape(prog, m.cfg.SPEs)
	m.net.Reset()
	m.memory.Reset()
	for _, spe := range m.spes {
		spe.LS.Reset()
		spe.Alloc.Reset(layout.HeapBase, layout.HeapBytes)
		spe.LSE.Reset(prog, int64(layout.FrameBase))
		spe.MFC.Reset()
		spe.SPU.Reset()
	}
	if err := m.loadCode(); err != nil {
		return err
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
// code region (the SPUs fetch from m.code; the bytes make the layout
// faithful and debuggable), encoding into SPE 0's and copying from it.
func (m *Machine) loadCode() error {
	first := m.spes[0].LS
	addr := int64(0)
	for _, t := range m.prog.Templates {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			for _, ins := range t.Blocks[k] {
				if err := first.Write64(addr, int64(ins.Encode())); err != nil {
					return fmt.Errorf("cell: code overflows local store at %#x", addr)
				}
				addr += 8
			}
		}
	}
	for _, spe := range m.spes[1:] {
		if err := spe.LS.CopyFrom(first, int(addr)); err != nil {
			return err
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
	Rec      *trace.Recorder // non-nil when Config.Record
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
	// call Step again (after a snapshot capture, say).
	StepBudget StepStatus = iota
	// StepDone: the run completed (including the post-completion DMA
	// drain); call Finish to assemble the Result.
	StepDone
)

// Step advances the simulation by at most budget cycles and reports
// whether the run completed. It is the bounded-slice form of Run: a
// sequence of Step calls executes the exact same engine schedule as a
// single Run — slice boundaries land on natural event cycles (see
// sim.Engine.RunUntil) and no machine state observes them — so a run
// paused for a snapshot stays byte-identical to a run-to-completion one.
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
// event (sim.Never when quiescent).
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
		Net: m.net.Stats(m.eng.Now()), Rec: m.rec,
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

// ComponentTicks is one engine component's event count for a run.
type ComponentTicks struct {
	Name  string // sim.Component.Name: "ppe", "memory", "lse0", "spu0", ...
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

// Profile returns the machine's guest cycle profile: per (template
// block, pc, cause), the cycles its SPUs spent there, summed over SPEs
// (export with obs.WriteProfile). It is the machine's own store, valid
// until the next Reset, which reshapes and empties it; a Result does not
// carry it, so a pooled machine's next run cannot change a result. The
// SPUs' run steps are charged to it first.
func (m *Machine) Profile() *stats.Profile {
	m.chargeRuns()
	return m.prof
}

// chargeRuns charges every SPU's run steps to the profile.
func (m *Machine) chargeRuns() {
	for _, spe := range m.spes {
		spe.SPU.ChargeRuns()
	}
}

// MemReader exposes the post-run memory image.
func (m *Machine) MemReader() program.MemReader { return mem.Reader{S: m.memory.Store()} }

// SPEs exposes the machine's processing elements (for tests and tools).
func (m *Machine) SPEs() []*SPE { return m.spes }

// MemSparse exposes the functional backing store of main memory (for
// whole-image comparison by the synth differential checker).
func (m *Machine) MemSparse() *mem.Sparse { return m.memory.Store() }
