package harness

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "phase-memlat",
		Title: "P1: mid-run memory latency phase change (checkpoint fork)",
		Paper: "not in the paper — exercises checkpoint/fork: one shared warm-up prefix, per-variant divergence",
		Run:   phaseMemLat,
	})
}

// phaseMemLat runs each benchmark with the paper configuration up to
// half its baseline cycle count, then continues with the memory
// latency scaled — the DRAM-contention phase change the checkpoint
// machinery exists to sweep. All factors of one benchmark share the
// same warm-up prefix through the checkpoint cache: it is simulated
// once (the x1 run) and every other factor forks from the snapshot.
//
// The x1 row doubles as a built-in identity check: forking with
// unchanged knobs must reproduce the cold baseline exactly, so a
// mismatch there means the snapshot/restore contract broke.
func phaseMemLat(ctx *Context) (*Outcome, error) {
	t := &stats.Table{
		Title:   fmt.Sprintf("P1 — memory latency phase change at half-run (prefetching, %d SPUs)", ctx.Opt.SPEs),
		Headers: []string{"benchmark", "baseline", "x1", "x2", "x4", "slowdown x4"},
	}
	metrics := map[string]float64{}
	// The cold baselines first: each fixes its benchmark's divergence
	// cycle and identity reference.
	specs := make([]runSpec, len(benchmarks))
	for i, bench := range benchmarks {
		specs[i] = ctx.spec(bench, ctx.Opt.SPEs, true)
	}
	base, err := ctx.runList(specs)
	if err != nil {
		return nil, err
	}
	// Then the phase runs, in two lists: the x1 runs simulate each
	// benchmark's prefix and capture it, and once runAll has written
	// their snapshots back, the x2 and x4 runs restore them.
	phases := func(factors ...int) ([]*cell.Result, error) {
		var specs []runSpec
		for i, bench := range benchmarks {
			for _, factor := range factors {
				knobs := cell.Knobs{MemLatency: ctx.Opt.Latency * factor}
				specs = append(specs, ctx.phaseSpec(bench, ctx.Opt.SPEs, knobs, base[i].Cycles/2))
			}
		}
		return ctx.runList(specs)
	}
	x1, err := phases(1)
	if err != nil {
		return nil, err
	}
	x24, err := phases(2, 4)
	if err != nil {
		return nil, err
	}
	for i, bench := range benchmarks {
		if x1[i].Cycles != base[i].Cycles {
			return nil, fmt.Errorf("%s: forked x1 run took %d cycles, cold baseline %d — checkpoint fork is not identity-preserving",
				bench, x1[i].Cycles, base[i].Cycles)
		}
		cells := []string{ctx.benchLabel(bench), fmt.Sprintf("%d", base[i].Cycles)}
		runs := []*cell.Result{x1[i], x24[2*i], x24[2*i+1]}
		for k, factor := range []int{1, 2, 4} {
			res := runs[k]
			cells = append(cells, fmt.Sprintf("%d", res.Cycles))
			metrics[fmt.Sprintf("%s_cycles_x%d", bench, factor)] = float64(res.Cycles)
		}
		slowdown := float64(runs[2].Cycles) / float64(base[i].Cycles)
		cells = append(cells, stats.Ratio(slowdown))
		metrics[bench+"_slowdown_x4"] = slowdown
		t.AddRow(cells...)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
