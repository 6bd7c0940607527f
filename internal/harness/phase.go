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
	for _, bench := range benchmarks {
		// The cold baseline first: it fixes the divergence cycle and the
		// identity reference. Each phase run below is declared on its own,
		// after the one before it has written its prefix snapshot back, so
		// the x2 and x4 runs restore what the x1 run captured.
		base, err := ctx.run(bench, ctx.Opt.SPEs, true, defaultVariant())
		if err != nil {
			return nil, err
		}
		div := base.Cycles / 2
		cells := []string{ctx.benchLabel(bench), fmt.Sprintf("%d", base.Cycles)}
		var last *cell.Result
		for _, factor := range []int{1, 2, 4} {
			knobs := cell.Knobs{MemLatency: ctx.Opt.Latency * factor}
			res, err := ctx.runPhase(bench, ctx.Opt.SPEs, knobs, div)
			if err != nil {
				return nil, err
			}
			if factor == 1 && res.Cycles != base.Cycles {
				return nil, fmt.Errorf("%s: forked x1 run took %d cycles, cold baseline %d — checkpoint fork is not identity-preserving",
					bench, res.Cycles, base.Cycles)
			}
			cells = append(cells, fmt.Sprintf("%d", res.Cycles))
			metrics[fmt.Sprintf("%s_cycles_x%d", bench, factor)] = float64(res.Cycles)
			last = res
		}
		slowdown := float64(last.Cycles) / float64(base.Cycles)
		cells = append(cells, stats.Ratio(slowdown))
		metrics[bench+"_slowdown_x4"] = slowdown
		t.AddRow(cells...)
	}
	return &Outcome{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
