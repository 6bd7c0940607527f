package harness

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Ablations beyond the paper: each probes one design choice; the
// questions and expected shapes are tabulated in EXPERIMENTS.md.
func init() {
	register(&Experiment{
		ID:    "ablation-vfp",
		Title: "A1: virtual frame pointers (DTA-C feature absent from CellDTA)",
		Paper: "the paper attributes bitcnt's LSE stalls to blocking FALLOC and points to virtual frame pointers as the fix",
		Run:   ablationVFP,
	})
	register(&Experiment{
		ID:    "ablation-dmalat",
		Title: "A2: MFC command latency sweep",
		Paper: "Table 4 fixes 30 cycles; sensitivity shows how command processing affects prefetch benefit",
		Run:   ablationDMALat,
	})
	register(&Experiment{
		ID:    "ablation-buses",
		Title: "A3: bus count sweep",
		Paper: "Table 4 fixes 4 buses x 8 B/cycle; DMA bursts need the aggregate bandwidth",
		Run:   ablationBuses,
	})
	register(&Experiment{
		ID:    "ablation-memlat",
		Title: "A4: memory latency sweep (prefetch benefit crossover)",
		Paper: "the paper contrasts 150 cycles vs 1 cycle; the sweep locates the break-even",
		Run:   ablationMemLat,
	})
	register(&Experiment{
		ID:    "ablation-nodes",
		Title: "A5: multi-node DTA (2x4 SPEs vs 1x8)",
		Paper: "DTA clusters PEs into nodes against wire delay; CellDTA used a single node",
		Run:   ablationNodes,
	})
	register(&Experiment{
		ID:    "ablation-granularity",
		Title: "A6: DMA granularity (per-row commands vs one command per region)",
		Paper: "the paper's mechanism can 'prefetch the entire data structure or only parts of it'",
		Run:   ablationGranularity,
	})
	register(&Experiment{
		ID:    "ablation-writeback",
		Title: "A7: write-back decoupling (stage WRITEs locally, flush with PS-block DMA PUTs)",
		Paper: "the paper decouples READs only; WRITEs stay posted — this is the write-side dual",
		Run:   ablationWriteback,
	})
}

func ablationVFP(ctx *Context) (*Outcome, error) {
	// Recreate the paper's "forks a vast amount of threads in a small
	// amount of time" scenario: 8 parallel spawner chains flood the
	// scheduler with FALLOCs. Two frame budgets: the default 64
	// frames/LSE (little pressure) and a tight 16 frames/LSE, where
	// blocking FALLOC round trips pile up behind frame reuse.
	rows := []struct {
		label  string
		vfp    bool
		frames int
		key    string
	}{
		{"blocking FALLOC", false, 64, "blocking64"},
		{"virtual frame pointers", true, 64, "vfp64"},
		{"blocking FALLOC", false, 16, "blocking16"},
		{"virtual frame pointers", true, 16, "vfp16"},
	}
	specs := make([]runSpec, len(rows))
	for i, row := range rows {
		specs[i] = ctx.spec("bitcnt", ctx.Opt.SPEs, true)
		specs[i].build.params.Chains = 8
		specs[i].cfg.LSE.VirtualFP = row.vfp
		specs[i].cfg.LSE.NumFrames = row.frames
	}
	runs, errs := declare(ctx, specs)

	t := &stats.Table{
		Title:   "A1 — blocking FALLOC vs virtual frame pointers (bitcnt, 8 spawner chains)",
		Headers: []string{"mode", "frames/LSE", "cycles", "LSE stalls"},
	}
	metrics := map[string]float64{}
	for i, row := range rows {
		// A failed row is a table value, not a failed experiment: under
		// deeper fork trees blocking FALLOC deadlocks, and the table says so.
		cycles, lse, val := "error", "", 0.0
		var dl *sim.ErrDeadlock
		switch res, err := runs[i], errs[i]; {
		case errors.As(err, &dl):
			cycles, lse = "DEADLOCK", "-"
		case err != nil:
			lse = err.Error()
		default:
			cycles = fmt.Sprintf("%d", res.Cycles)
			lse = stats.Pct(res.AvgBreakdownPct()[stats.LSEStall])
			val = float64(res.Cycles)
		}
		t.AddRow(row.label, fmt.Sprintf("%d", row.frames), cycles, lse)
		metrics[row.key+"_cycles"] = val
	}
	return &Outcome{
		Tables: []*stats.Table{t},
		Notes: []string{
			"the paper attributes bitcnt's LSE stalls to thread-fork floods and names " +
				"virtual frame pointers (a DTA-C feature missing from CellDTA) as the fix; " +
				"under a tight frame budget blocking FALLOC loses ~40% of SPU time to " +
				"scheduler waits while VFPs eliminate them (and under even deeper fork " +
				"trees blocking FALLOC can deadlock outright — see the machine tests)",
		},
		Metrics: metrics,
	}, nil
}

func ablationDMALat(ctx *Context) (*Outcome, error) {
	lats := []int{0, 15, 30, 60, 120}
	specs := make([]runSpec, len(lats))
	for i, lat := range lats {
		specs[i] = ctx.spec("mmul", ctx.Opt.SPEs, true)
		specs[i].cfg.MFC.CmdLatency = lat
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "A2 — MFC command latency sweep (mmul, prefetching)",
		Headers: []string{"command latency", "cycles", "prefetch overhead"},
	}
	metrics := map[string]float64{}
	for i, lat := range lats {
		res := runs[i]
		t.AddRow(fmt.Sprintf("%d", lat),
			fmt.Sprintf("%d", res.Cycles),
			stats.Pct(res.AvgBreakdownPct()[stats.Prefetch]))
		metrics[fmt.Sprintf("cycles_lat%d", lat)] = float64(res.Cycles)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func ablationBuses(ctx *Context) (*Outcome, error) {
	busCounts := []int{1, 2, 4, 8}
	specs := make([]runSpec, len(busCounts))
	for i, buses := range busCounts {
		specs[i] = ctx.spec("mmul", ctx.Opt.SPEs, true)
		specs[i].cfg.Noc.Buses = buses
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "A3 — bus count sweep (mmul, prefetching)",
		Headers: []string{"buses", "aggregate BW", "cycles"},
	}
	metrics := map[string]float64{}
	for i, buses := range busCounts {
		res := runs[i]
		t.AddRow(fmt.Sprintf("%d", buses),
			fmt.Sprintf("%d B/cy", buses*8),
			fmt.Sprintf("%d", res.Cycles))
		metrics[fmt.Sprintf("cycles_%dbuses", buses)] = float64(res.Cycles)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func ablationMemLat(ctx *Context) (*Outcome, error) {
	lats := []int{1, 25, 75, 150, 300, 600}
	// Each latency's runs are declared on a Sub, so at 150 and 1 they
	// are fig7's and lat1's runs, served by the shared run cache.
	var specs []runSpec
	for _, lat := range lats {
		sub := ctx.Sub(Options{SPEs: ctx.Opt.SPEs, Latency: lat, Quick: ctx.Opt.Quick, Seed: ctx.Opt.Seed})
		specs = append(specs, sub.spec("mmul", sub.Opt.SPEs, false), sub.spec("mmul", sub.Opt.SPEs, true))
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "A4 — memory latency sweep (mmul, 8 SPUs)",
		Headers: []string{"latency", "original", "prefetching", "speedup"},
	}
	metrics := map[string]float64{}
	for i, lat := range lats {
		orig, pf := runs[2*i], runs[2*i+1]
		speedup := float64(orig.Cycles) / float64(pf.Cycles)
		t.AddRow(fmt.Sprintf("%d", lat),
			fmt.Sprintf("%d", orig.Cycles),
			fmt.Sprintf("%d", pf.Cycles),
			stats.Ratio(speedup))
		metrics[fmt.Sprintf("speedup_lat%d", lat)] = speedup
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func ablationNodes(ctx *Context) (*Outcome, error) {
	if ctx.Opt.SPEs%2 != 0 {
		return nil, fmt.Errorf("ablation-nodes needs an even SPE count, got %d", ctx.Opt.SPEs)
	}
	nodeCounts := []int{1, 2}
	specs := make([]runSpec, len(nodeCounts))
	for i, nodes := range nodeCounts {
		specs[i] = ctx.spec("mmul", ctx.Opt.SPEs, true)
		specs[i].cfg.Nodes = nodes
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "A5 — node organisation (mmul, prefetching)",
		Headers: []string{"organisation", "cycles", "DSE falloc forwards"},
	}
	metrics := map[string]float64{}
	for i, nodes := range nodeCounts {
		res := runs[i]
		var forwards int64
		for _, d := range res.DSEs {
			forwards += d.Forwards
		}
		t.AddRow(fmt.Sprintf("%dx%d", nodes, ctx.Opt.SPEs/nodes),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", forwards))
		metrics[fmt.Sprintf("cycles_%dnodes", nodes)] = float64(res.Cycles)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

func ablationGranularity(ctx *Context) (*Outcome, error) {
	wholeSpec := ctx.spec("mmul", ctx.Opt.SPEs, true)
	wholeSpec.build.opt.WholeRegions = true
	runs, err := ctx.runList([]runSpec{ctx.spec("mmul", ctx.Opt.SPEs, true), wholeSpec})
	if err != nil {
		return nil, err
	}
	perRow, whole := runs[0], runs[1]
	t := &stats.Table{
		Title:   "A6 — DMA granularity (mmul, prefetching)",
		Headers: []string{"granularity", "cycles", "prefetch overhead", "DMA commands"},
	}
	var perRowCmds, wholeCmds int64
	for _, m := range perRow.MFCs {
		perRowCmds += m.Gets + m.Puts
	}
	for _, m := range whole.MFCs {
		wholeCmds += m.Gets + m.Puts
	}
	t.AddRow("one command per row",
		fmt.Sprintf("%d", perRow.Cycles),
		stats.Pct(perRow.AvgBreakdownPct()[stats.Prefetch]),
		fmt.Sprintf("%d", perRowCmds))
	t.AddRow("one command per region",
		fmt.Sprintf("%d", whole.Cycles),
		stats.Pct(whole.AvgBreakdownPct()[stats.Prefetch]),
		fmt.Sprintf("%d", wholeCmds))
	return &Outcome{Tables: []*stats.Table{t}, Metrics: map[string]float64{
		"perrow_cycles": float64(perRow.Cycles),
		"whole_cycles":  float64(whole.Cycles),
		"perrow_cmds":   float64(perRowCmds),
		"whole_cmds":    float64(wholeCmds),
	}}, nil
}

func ablationWriteback(ctx *Context) (*Outcome, error) {
	rows := []struct {
		label     string
		writeBack bool
		key       string
	}{
		{"posted WRITEs (paper)", false, "posted"},
		{"DMA write-back (A7)", true, "writeback"},
	}
	specs := make([]runSpec, len(rows))
	for i, row := range rows {
		specs[i] = ctx.spec("mmul", ctx.Opt.SPEs, true)
		specs[i].build.opt.WriteBack = row.writeBack
	}
	runs, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "A7 — write handling (mmul, prefetching, 8 SPUs)",
		Headers: []string{"mode", "cycles", "posted WRITEs", "DMA PUTs", "bus messages"},
	}
	metrics := map[string]float64{}
	for i, row := range rows {
		res := runs[i]
		var puts int64
		for _, m := range res.MFCs {
			puts += m.Puts
		}
		t.AddRow(row.label,
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", res.Agg.Instr.Write),
			fmt.Sprintf("%d", puts),
			fmt.Sprintf("%d", res.Net.Messages))
		metrics[row.key+"_cycles"] = float64(res.Cycles)
		metrics[row.key+"_messages"] = float64(res.Net.Messages)
		metrics[row.key+"_writes"] = float64(res.Agg.Instr.Write)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
