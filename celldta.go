// Package celldta is the public API of the CellDTA reproduction: a
// cycle-level model of DTA (Decoupled Threaded Architecture) hardware
// scheduling on a Cell-like many-core, implementing the DMA-prefetching
// mechanism of Giorgi, Popovic and Puzovic, "Exploiting DMA to enable
// non-blocking execution in Decoupled Threaded Architecture" (IPDPS/IPPS
// Workshops, 2009).
//
// The package wraps the internal substrates (simulation kernel, ISA,
// interconnect, memory, local stores, MFC DMA engines, LSE/DSE hardware
// scheduler, SPU pipelines) behind three entry points:
//
//   - Run executes a named benchmark (bitcnt, mmul, zoom, vecsum) on a
//     configured machine, with or without the paper's DMA prefetching;
//   - BuildWorkload / Transform / Execute give step-wise control (build
//     a DTA program, apply the prefetch compiler pass, run it);
//   - NewProgramBuilder exposes the macro-assembler for writing custom
//     DTA thread programs against the same machine.
package celldta

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Re-exported machine configuration (paper Tables 2 and 4 defaults).
type (
	// Config is the whole-machine configuration.
	Config = cell.Config
	// Result carries cycles, per-SPU statistics and workload tokens.
	Result = cell.Result
	// Params selects a workload's problem size, worker count and seed.
	Params = workloads.Params
	// Program is a built DTA program (templates + memory image).
	Program = program.Program
	// ProgramBuilder is the macro-assembler entry point.
	ProgramBuilder = program.Builder
	// TemplateBuilder builds one thread template.
	TemplateBuilder = program.TB
	// Asm emits instructions into one code block.
	Asm = program.Asm
	// Reg names an SPU register.
	Reg = program.Reg
	// MemReader is the post-run view of main memory.
	MemReader = program.MemReader
	// Breakdown is the SPU time breakdown (paper Figure 5 buckets).
	Breakdown = stats.Breakdown
	// PrefetchStats summarises what the prefetch pass rewrote.
	PrefetchStats = prefetch.Stats
)

// Region address/size expressions (inputs to the prefetch compiler).
type (
	// AddrExpr is a frame-relative address: Const + sum of slot*scale.
	AddrExpr = program.AddrExpr
	// AddrTerm contributes frame[Slot]*Scale to an AddrExpr.
	AddrTerm = program.AddrTerm
	// SizeExpr is a constant or frame-derived transfer size.
	SizeExpr = program.SizeExpr
)

// AddrTermExpr builds frame[slotA]*scaleA (+ frame[slotB]*scaleB when
// slotB >= 0) — the common one- and two-term region base shapes.
func AddrTermExpr(slotA int, scaleA int64, slotB int, scaleB int64) AddrExpr {
	e := AddrExpr{Terms: []AddrTerm{{Slot: slotA, Scale: scaleA}}}
	if slotB >= 0 {
		e.Terms = append(e.Terms, AddrTerm{Slot: slotB, Scale: scaleB})
	}
	return e
}

// SizeConstExpr declares a fixed region size in bytes.
func SizeConstExpr(n int64) SizeExpr { return program.SizeConst(n) }

// SizeSlotExpr declares a frame-derived region size: frame[slot]*scale.
func SizeSlotExpr(slot int, scale int64) SizeExpr { return program.SizeSlot(slot, scale, 0) }

// Breakdown bucket names (paper Figure 5).
const (
	BucketWorking  = stats.Working
	BucketIdle     = stats.Idle
	BucketMemStall = stats.MemStall
	BucketLSStall  = stats.LSStall
	BucketLSEStall = stats.LSEStall
	BucketPrefetch = stats.Prefetch
)

// DefaultConfig returns the paper's platform: 8 SPEs, 150-cycle memory,
// 156 kB local stores, 4 buses, 16-deep MFC queues.
func DefaultConfig() Config { return cell.DefaultConfig() }

// R names a general-purpose register for builder code.
func R(i int) Reg { return program.R(i) }

// NewProgramBuilder starts a custom DTA program.
func NewProgramBuilder(name string) *ProgramBuilder { return program.NewBuilder(name) }

// Workloads lists the registered benchmark names.
func Workloads() []string { return workloads.Names() }

// WorkloadInfo describes one registered benchmark.
type WorkloadInfo struct {
	Name        string
	Description string
	DefaultN    int
}

// Describe returns metadata for a registered workload.
func Describe(name string) (WorkloadInfo, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return WorkloadInfo{}, fmt.Errorf("celldta: unknown workload %q (have %v)", name, workloads.Names())
	}
	return WorkloadInfo{Name: w.Name, Description: w.Description, DefaultN: w.DefaultN}, nil
}

// AutoWorkers picks the paper-style power-of-two worker count for a
// machine with the given number of SPEs.
func AutoWorkers(spes, max int) int { return workloads.AutoWorkers(spes, max) }

// BuildWorkload constructs a named benchmark program without
// prefetching. Zero fields of Params select paper defaults.
func BuildWorkload(name string, p Params) (*Program, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("celldta: unknown workload %q (have %v)", name, workloads.Names())
	}
	if p.N == 0 {
		p.N = w.DefaultN
	}
	return w.Build(p)
}

// Transform applies the paper's prefetch compiler pass: region-annotated
// READs move into DMA transfers programmed by a synthesised PF block.
func Transform(p *Program) (*Program, error) { return prefetch.Transform(p) }

// TransformOptions selects extension passes beyond the paper.
type TransformOptions = prefetch.Options

// TransformWith applies the prefetch pass with extensions (e.g.
// WriteBack: stage tagged WRITEs locally and flush with PS-block DMA
// PUTs — the write-side dual of the paper's mechanism).
func TransformWith(p *Program, opt TransformOptions) (*Program, error) {
	return prefetch.TransformWithOptions(p, opt)
}

// AnalyzePrefetch reports what the pass rewrote (e.g. the fraction of
// READ instructions decoupled — 62% for bitcnt in the paper).
func AnalyzePrefetch(before, after *Program) PrefetchStats {
	return prefetch.Analyze(before, after)
}

// Execute runs a built program on a machine with the given
// configuration.
func Execute(cfg Config, p *Program) (*Result, error) {
	m, err := cell.New(cfg, p)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// RunOptions selects a benchmark run.
type RunOptions struct {
	Workload string
	Params   Params
	Prefetch bool   // apply the DMA-prefetching transformation
	Config   Config // the zero Config selects DefaultConfig
}

// Run builds and executes a benchmark in one call. A Config that is not
// the zero value is used as given, so an invalid one is an error.
func Run(opt RunOptions) (*Result, error) {
	cfg := opt.Config
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	p := opt.Params
	if p.Workers == 0 {
		p.Workers = AutoWorkers(cfg.SPEs, 32)
	}
	prog, err := BuildWorkload(opt.Workload, p)
	if err != nil {
		return nil, err
	}
	if opt.Prefetch {
		prog, err = Transform(prog)
		if err != nil {
			return nil, err
		}
	}
	res, err := Execute(cfg, prog)
	if err != nil {
		return nil, err
	}
	if res.CheckErr != nil {
		return res, fmt.Errorf("celldta: functional check failed: %w", res.CheckErr)
	}
	return res, nil
}
