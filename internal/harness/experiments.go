package harness

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/stats"
)

// breakdownRow renders one benchmark's SPU-time breakdown percentages.
func breakdownRow(label string, res *cell.Result) []string {
	bd := res.AvgBreakdownPct()
	return []string{
		label,
		stats.Pct(bd[stats.Working]),
		stats.Pct(bd[stats.Idle]),
		stats.Pct(bd[stats.MemStall]),
		stats.Pct(bd[stats.LSStall]),
		stats.Pct(bd[stats.LSEStall]),
		stats.Pct(bd[stats.Prefetch]),
	}
}

var breakdownHeaders = []string{
	"benchmark", "Working", "Idle", "Memory", "LS", "LSE", "Prefetching",
}

func init() {
	register(&Experiment{
		ID:    "table2",
		Title: "Table 2: memory subsystem parameters",
		Paper: "main memory 512MB/150cy/1 port; local store 156kB/6cy/3 ports",
		Run: func(ctx *Context) (*Outcome, error) {
			cfg := cell.DefaultConfig()
			cfg.Mem.Latency = ctx.Opt.Latency
			t := &stats.Table{
				Title:   "Table 2 — memory subsystem (live configuration)",
				Headers: []string{"memory", "parameter", "value"},
			}
			t.AddRow("Main memory", "Size", fmt.Sprintf("%d MB", cfg.Mem.SizeBytes>>20))
			t.AddRow("", "Latency", fmt.Sprintf("%d cycles", cfg.Mem.Latency))
			t.AddRow("", "Number of ports", fmt.Sprintf("%d", cfg.Mem.Ports))
			t.AddRow("Local Store", "Size", fmt.Sprintf("%d kB", cfg.LS.SizeBytes/1024))
			t.AddRow("", "Latency", fmt.Sprintf("%d cycles", cfg.LS.Latency))
			t.AddRow("", "Number of ports", fmt.Sprintf("%d", 3))
			return &Outcome{Tables: []*stats.Table{t}, Metrics: map[string]float64{
				"mem_latency": float64(cfg.Mem.Latency),
				"ls_latency":  float64(cfg.LS.Latency),
			}}, nil
		},
	})

	register(&Experiment{
		ID:    "table3",
		Title: "Table 3: DMA programming parameters",
		Paper: "LS address, MEM address, data size, tag ID per command",
		Run: func(ctx *Context) (*Outcome, error) {
			t := &stats.Table{
				Title:   "Table 3 — MFC command fields (as implemented by the ISA)",
				Headers: []string{"name", "instruction", "description"},
			}
			t.AddRow("LS address", "mfclsa", "local store address data will be stored to")
			t.AddRow("MEM address", "mfcea", "main memory address data is located at")
			t.AddRow("Data size", "mfcsz", "size of the transfer in bytes")
			t.AddRow("Tag ID", "mfctag", "tag the LSE uses to check completion")
			t.AddRow("(enqueue)", "mfcget/mfcput", "submit the staged command to the queue")
			return &Outcome{Tables: []*stats.Table{t}, Metrics: map[string]float64{}}, nil
		},
	})

	register(&Experiment{
		ID:    "table4",
		Title: "Table 4: communication subsystem parameters",
		Paper: "4 buses x 8 B/cycle; MFC queue 16, command latency 30",
		Run: func(ctx *Context) (*Outcome, error) {
			cfg := cell.DefaultConfig()
			t := &stats.Table{
				Title:   "Table 4 — communication subsystem (live configuration)",
				Headers: []string{"unit", "parameter", "value"},
			}
			t.AddRow("Bus", "Number of buses", fmt.Sprintf("%d", cfg.Noc.Buses))
			t.AddRow("", "BW of each bus", fmt.Sprintf("%d bytes/cycle", cfg.Noc.BytesPerCyc))
			t.AddRow("", "Total BW", fmt.Sprintf("%d bytes/cycle", cfg.Noc.Buses*cfg.Noc.BytesPerCyc))
			t.AddRow("MFC (DMA controller)", "Command queue size", fmt.Sprintf("%d", cfg.MFC.QueueSize))
			t.AddRow("", "Command latency", fmt.Sprintf("%d cycles", cfg.MFC.CmdLatency))
			return &Outcome{Tables: []*stats.Table{t}, Metrics: map[string]float64{
				"buses":       float64(cfg.Noc.Buses),
				"mfc_queue":   float64(cfg.MFC.QueueSize),
				"mfc_latency": float64(cfg.MFC.CmdLatency),
			}}, nil
		},
	})

	register(&Experiment{
		ID:    "fig5a",
		Title: "Figure 5a: SPU time breakdown, no prefetching (8 SPUs, lat 150)",
		Paper: "memory stalls: bitcnt 58%, mmul 94%, zoom 92%",
		Run:   func(ctx *Context) (*Outcome, error) { return breakdownExperiment(ctx, false) },
	})

	register(&Experiment{
		ID:    "fig5b",
		Title: "Figure 5b: SPU time breakdown, with prefetching",
		Paper: "memory stalls ~0 for mmul/zoom, 26% for bitcnt; prefetch overhead 19%/28%/~0",
		Run:   func(ctx *Context) (*Outcome, error) { return breakdownExperiment(ctx, true) },
	})

	register(&Experiment{
		ID:    "table5",
		Title: "Table 5: dynamic instruction counts (no prefetching)",
		Paper: "mmul READ=65536 WRITE=1024; zoom READ=32768 WRITE=16384; bitcnt READ~2% of total",
		Run:   table5,
	})

	for _, bench := range benchmarks {
		bench := bench
		figID := map[string]string{"bitcnt": "fig6", "mmul": "fig7", "zoom": "fig8"}[bench]
		paper := map[string]string{
			"bitcnt": "prefetching speeds up bitcnt(10000) ~1.13x at 8 SPUs",
			"mmul":   "prefetching speeds up mmul(32) ~11.18x at 8 SPUs",
			"zoom":   "prefetching speeds up zoom(32) ~11.48x at 8 SPUs",
		}[bench]
		register(&Experiment{
			ID:    figID,
			Title: fmt.Sprintf("Figure %s: %s execution time and scalability (1..8 SPUs)", figID[3:], bench),
			Paper: paper,
			Run:   func(ctx *Context) (*Outcome, error) { return scalabilityExperiment(ctx, bench) },
		})
	}

	// Single-run experiments, one per (benchmark, variant): the smallest
	// addressable unit of work. They exist for targeted tooling — a
	// `-trace` timeline of exactly one simulation, a dtad job that wants
	// one benchmark — without dragging in a whole figure's sweep.
	for _, bench := range benchmarks {
		for _, pf := range []bool{false, true} {
			bench, pf := bench, pf
			suffix, desc := "orig", "original DTA"
			if pf {
				suffix, desc = "pf", "with DMA prefetching"
			}
			register(&Experiment{
				ID:    bench + "-" + suffix,
				Title: fmt.Sprintf("Single run: %s, %s (paper operating point)", bench, desc),
				Paper: "one simulation; the breakdown row of Figure 5" + map[bool]string{false: "a", true: "b"}[pf],
				Run:   func(ctx *Context) (*Outcome, error) { return singleRunExperiment(ctx, bench, pf) },
			})
		}
	}

	register(&Experiment{
		ID:    "fig9",
		Title: "Figure 9: pipeline usage with and without prefetching",
		Paper: "usage much higher with prefetching; almost perfect for mmul/zoom",
		Run:   fig9,
	})

	register(&Experiment{
		ID:    "lat1",
		Title: "Section 4.3: all memory latencies set to 1 cycle (always-hit study)",
		Paper: "speedup 1.01x (mmul), 1.34x (zoom); bitcnt slows down (overhead 34%, only 5% mem wait)",
		Run:   lat1,
	})
}

func singleRunExperiment(ctx *Context, bench string, pf bool) (*Outcome, error) {
	res, err := ctx.run(bench, ctx.Opt.SPEs, pf, defaultVariant())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("%s (pf=%v, %d SPUs, latency %d) — SPU time breakdown", bench, pf, ctx.Opt.SPEs, ctx.Opt.Latency),
		Headers: breakdownHeaders,
	}
	t.AddRow(breakdownRow(ctx.benchLabel(bench), res)...)
	bd := res.AvgBreakdownPct()
	metrics := map[string]float64{
		"cycles":       float64(res.Cycles),
		"threads":      float64(res.Agg.Threads),
		"working_pct":  bd[stats.Working],
		"mem_pct":      bd[stats.MemStall],
		"prefetch_pct": bd[stats.Prefetch],
		"noc_messages": float64(res.Net.Messages),
		"stall_pct":    res.Agg.Breakdown.StallPct(),
	}
	ct := &stats.Table{
		Title:   fmt.Sprintf("%s (pf=%v) — cycle attribution by cause", bench, pf),
		Headers: []string{"cause", "bucket", "cycles", "share"},
	}
	total := res.Agg.Breakdown.Total()
	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		n := res.Agg.Causes[c]
		metrics["cause_"+c.Slug()+"_cycles"] = float64(n)
		if n == 0 {
			continue // keep the table to causes that actually occurred
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(n) / float64(total)
		}
		ct.AddRow(c.Slug(), c.Bucket().String(), fmt.Sprintf("%d", n), stats.Pct(share))
	}
	return &Outcome{Tables: []*stats.Table{t, ct}, Metrics: metrics}, nil
}

// benchmarkSpecs declares one run per paper benchmark for each of the
// given prefetch settings, benchmark-major: with (false, true) the list
// reads bitcnt orig, bitcnt pf, mmul orig, ...
func benchmarkSpecs(spes int, prefetch ...bool) []runSpec {
	var specs []runSpec
	for _, bench := range benchmarks {
		for _, pf := range prefetch {
			specs = append(specs, benchSpec(bench, spes, pf))
		}
	}
	return specs
}

func breakdownExperiment(ctx *Context, pf bool) (*Outcome, error) {
	title := "Figure 5a — breakdown of average SPU execution time (no prefetching)"
	if pf {
		title = "Figure 5b — breakdown of average SPU execution time (with prefetching)"
	}
	runs, err := ctx.runList(benchmarkSpecs(ctx.Opt.SPEs, pf))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: title, Headers: breakdownHeaders}
	metrics := map[string]float64{}
	for i, bench := range benchmarks {
		res := runs[i]
		t.AddRow(breakdownRow(ctx.benchLabel(bench), res)...)
		bd := res.AvgBreakdownPct()
		metrics[bench+"_mem_pct"] = bd[stats.MemStall]
		metrics[bench+"_prefetch_pct"] = bd[stats.Prefetch]
		metrics[bench+"_working_pct"] = bd[stats.Working]
		metrics[bench+"_lse_pct"] = bd[stats.LSEStall]
		metrics[bench+"_stall_pct"] = res.Agg.Breakdown.StallPct()
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func table5(ctx *Context) (*Outcome, error) {
	runs, err := ctx.runList(benchmarkSpecs(ctx.Opt.SPEs, false))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table 5 — executed instructions (original DTA, 8 SPUs)",
		Headers: []string{"benchmark", "Total", "LOAD", "STORE", "READ", "WRITE"},
	}
	metrics := map[string]float64{}
	for i, bench := range benchmarks {
		ic := runs[i].Agg.Instr
		t.AddRow(ctx.benchLabel(bench),
			fmt.Sprintf("%d", ic.Total),
			fmt.Sprintf("%d", ic.Load),
			fmt.Sprintf("%d", ic.Store),
			fmt.Sprintf("%d", ic.Read),
			fmt.Sprintf("%d", ic.Write))
		metrics[bench+"_total"] = float64(ic.Total)
		metrics[bench+"_read"] = float64(ic.Read)
		metrics[bench+"_write"] = float64(ic.Write)
		metrics[bench+"_load"] = float64(ic.Load)
		metrics[bench+"_store"] = float64(ic.Store)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func scalabilityExperiment(ctx *Context, bench string) (*Outcome, error) {
	spesList := []int{1, 2, 4, 8}
	if ctx.Opt.SPEs < 8 {
		spesList = nil
		for s := 1; s <= ctx.Opt.SPEs; s *= 2 {
			spesList = append(spesList, s)
		}
	}
	// Each SPE count is a machine configuration of its own: the counts
	// simulate side by side, original and prefetched back to back on the
	// count's machine.
	var specs []runSpec
	for _, spes := range spesList {
		specs = append(specs, benchSpec(bench, spes, false), benchSpec(bench, spes, true))
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	exec := &stats.Table{
		Title:   fmt.Sprintf("(a) execution time (cycles), %s", ctx.benchLabel(bench)),
		Headers: []string{"SPUs", "original", "prefetching", "speedup"},
	}
	scal := &stats.Table{
		Title:   "(b) scalability (speedup vs 1 SPU)",
		Headers: []string{"SPUs", "original", "prefetching"},
	}
	metrics := map[string]float64{}
	var base [2]float64
	for i, spes := range spesList {
		orig, pf := runs[2*i], runs[2*i+1]
		if i == 0 {
			base[0], base[1] = float64(orig.Cycles), float64(pf.Cycles)
		}
		speedup := float64(orig.Cycles) / float64(pf.Cycles)
		exec.AddRow(fmt.Sprintf("%d", spes),
			fmt.Sprintf("%d", orig.Cycles),
			fmt.Sprintf("%d", pf.Cycles),
			stats.Ratio(speedup))
		scal.AddRow(fmt.Sprintf("%d", spes),
			stats.Ratio(base[0]/float64(orig.Cycles)),
			stats.Ratio(base[1]/float64(pf.Cycles)))
		metrics[fmt.Sprintf("speedup_%dspu", spes)] = speedup
		metrics[fmt.Sprintf("orig_cycles_%dspu", spes)] = float64(orig.Cycles)
		metrics[fmt.Sprintf("pf_cycles_%dspu", spes)] = float64(pf.Cycles)
	}
	last := spesList[len(spesList)-1]
	metrics["scalability_orig"] = base[0] / metrics[fmt.Sprintf("orig_cycles_%dspu", last)]
	metrics["scalability_pf"] = base[1] / metrics[fmt.Sprintf("pf_cycles_%dspu", last)]
	return &Outcome{Tables: []*stats.Table{exec, scal}, Metrics: metrics}, nil
}

func fig9(ctx *Context) (*Outcome, error) {
	runs, err := ctx.runList(benchmarkSpecs(ctx.Opt.SPEs, false, true))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 9 — pipeline usage (fraction of cycles issuing instructions)",
		Headers: []string{"benchmark", "original", "prefetching", "slot-util orig", "slot-util pf"},
	}
	metrics := map[string]float64{}
	for i, bench := range benchmarks {
		orig, pf := runs[2*i], runs[2*i+1]
		ow := orig.AvgBreakdownPct()[stats.Working]
		pw := pf.AvgBreakdownPct()[stats.Working]
		t.AddRow(ctx.benchLabel(bench),
			stats.Pct(ow), stats.Pct(pw),
			fmt.Sprintf("%.3f", orig.PipelineUsage()),
			fmt.Sprintf("%.3f", pf.PipelineUsage()))
		metrics[bench+"_usage_orig"] = ow
		metrics[bench+"_usage_pf"] = pw
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func lat1(ctx *Context) (*Outcome, error) {
	sub := ctx.Sub(Options{SPEs: ctx.Opt.SPEs, Latency: 1, Quick: ctx.Opt.Quick, Seed: ctx.Opt.Seed})
	runs, err := sub.runList(benchmarkSpecs(sub.Opt.SPEs, false, true))
	if err != nil {
		return nil, err
	}
	exec := &stats.Table{
		Title:   "Section 4.3 — all memory latencies set to 1 cycle (8 SPUs)",
		Headers: []string{"benchmark", "original", "prefetching", "speedup"},
	}
	bdown := &stats.Table{
		Title:   "breakdown with prefetching at latency 1",
		Headers: breakdownHeaders,
	}
	metrics := map[string]float64{}
	for i, bench := range benchmarks {
		orig, pf := runs[2*i], runs[2*i+1]
		speedup := float64(orig.Cycles) / float64(pf.Cycles)
		exec.AddRow(sub.benchLabel(bench),
			fmt.Sprintf("%d", orig.Cycles),
			fmt.Sprintf("%d", pf.Cycles),
			stats.Ratio(speedup))
		bdown.AddRow(breakdownRow(sub.benchLabel(bench), pf)...)
		metrics[bench+"_speedup"] = speedup
		metrics[bench+"_pf_overhead_pct"] = pf.AvgBreakdownPct()[stats.Prefetch]
		metrics[bench+"_orig_mem_pct"] = orig.AvgBreakdownPct()[stats.MemStall]
	}
	return &Outcome{
		Tables: []*stats.Table{exec, bdown},
		Notes: []string{
			"the paper reports mmul 1.01x, zoom 1.34x, and a bitcnt slowdown " +
				"(prefetch overhead with nothing to hide)",
		},
		Metrics: metrics,
	}, nil
}
