package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// setupRun: `dta run` simulates one program and prints the statistics
// the paper reports: cycle count, the SPU execution-time breakdown
// (Figure 5 categories), dynamic instruction counts (Table 5 columns)
// and pipeline usage (Figure 9). The program is a registered benchmark
// built exactly as the experiments build it (-bench, sized by -quick or
// -n, from -seed), or an assembly file operand, which has no size or
// seed to set. Either runs on the experiments' machine for -spes and
// -latency.
func setupRun(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "bench", "quick", "seed", "spes", "latency", "prefetch", "trace")
	n := fs.Int("n", 0, "problem size of -bench (0 = the harness's size, paper or -quick)")
	verbose := fs.Bool("verbose", false, "also print per-SPU statistics")
	list := fs.Bool("list", false, "describe the registered benchmarks and exit")
	return func(args []string) error {
		if *list {
			for _, name := range workloads.Names() {
				w, _ := workloads.Get(name)
				fmt.Printf("%s: %s (paper size: %d)\n", w.Name, w.Description, w.DefaultN)
			}
			return nil
		}
		opt := harness.Options{SPEs: sh.spes, Latency: sh.latency, Quick: sh.quick, Seed: sh.seed}
		var (
			name string
			prog *program.Program
			err  error
		)
		switch {
		case len(args) == 0 && sh.bench != "":
			name = sh.bench
			prog, err = harness.BenchProgram(opt, sh.bench, *n, sh.prefetch)
		case len(args) == 1 && sh.bench == "":
			if err := refuseSet(fs, "with a .dta file", "n", "quick", "seed"); err != nil {
				return err
			}
			name = args[0]
			prog, err = parseFile(args[0], sh.prefetch)
		default:
			return usagef("want -bench or one .dta file operand, not both (operands %q)", args)
		}
		if err != nil {
			return err
		}
		cfg := harness.MachineConfig(opt)
		cfg.Record = sh.trace != ""
		m, err := cell.New(cfg, prog)
		if err != nil {
			return err
		}
		res, err := m.Run()
		if err != nil {
			return err
		}
		if res.CheckErr != nil {
			return fmt.Errorf("functional check: %w", res.CheckErr)
		}
		report(res, name, sh, *verbose)
		if sh.trace == "" {
			return nil
		}
		label := fmt.Sprintf("%s spes=%d pf=%t lat=%d", name, sh.spes, sh.prefetch, sh.latency)
		return writeObserved(sh, []obs.Run{{Label: label, SPEs: sh.spes, Prog: prog, Rec: res.Rec}})
	}
}

// parseFile assembles a .dta file, prefetch-transformed when pf is set.
func parseFile(path string, pf bool) (*program.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		return nil, err
	}
	if pf {
		if prog, err = prefetch.Transform(prog); err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
	}
	return prog, nil
}

// report prints one run's statistics.
func report(res *cell.Result, name string, sh *shared, verbose bool) {
	mode := "original DTA"
	if sh.prefetch {
		mode = "DMA prefetching"
	}
	fmt.Printf("%s on %d SPEs (%s, memory latency %d)\n", name, sh.spes, mode, sh.latency)
	fmt.Printf("execution time: %d cycles\n", res.Cycles)
	fmt.Printf("threads executed: %d (PF blocks: %d)\n", res.Agg.Threads, res.Agg.PFBlocks)
	fmt.Printf("functional check: ok (tokens %v)\n\n", res.Tokens)

	bd := res.AvgBreakdownPct()
	tbl := &stats.Table{
		Title:   "average SPU execution time breakdown",
		Headers: []string{"bucket", "share"},
	}
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		tbl.AddRow(b.String(), stats.Pct(bd[b]))
	}
	tbl.Render(os.Stdout)

	ic := res.Agg.Instr
	fmt.Printf("\ninstructions: total=%d load=%d store=%d read=%d write=%d lsdir=%d dta=%d mfc=%d\n",
		ic.Total, ic.Load, ic.Store, ic.Read, ic.Write, ic.LSDir, ic.DTA, ic.MFC)
	fmt.Printf("pipeline usage: %.1f%% of cycles issuing (%.3f slot utilisation)\n",
		bd[stats.Working], res.PipelineUsage())
	fmt.Printf("interconnect: %d messages, %d bytes\n", res.Net.Messages, res.Net.Bytes)
	fmt.Printf("memory: %d scalar reads, %d block reads, %d bytes read\n",
		res.Mem.ScalarReads, res.Mem.BlockReads, res.Mem.BytesRead)

	if !verbose {
		return
	}
	fmt.Println()
	per := &stats.Table{
		Title: "per-SPU statistics",
		Headers: []string{"SPU", "threads", "working", "idle", "mem", "ls",
			"lse", "prefetch", "instr"},
	}
	for i, s := range res.SPUs {
		per.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", s.Threads),
			stats.Pct(s.Breakdown.Percent(stats.Working)),
			stats.Pct(s.Breakdown.Percent(stats.Idle)),
			stats.Pct(s.Breakdown.Percent(stats.MemStall)),
			stats.Pct(s.Breakdown.Percent(stats.LSStall)),
			stats.Pct(s.Breakdown.Percent(stats.LSEStall)),
			stats.Pct(s.Breakdown.Percent(stats.Prefetch)),
			fmt.Sprintf("%d", s.Instr.Total),
		)
	}
	per.Render(os.Stdout)
}
