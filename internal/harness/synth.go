package harness

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/synth"
)

// The pinned synth corpus is registered as first-class experiments
// ("synth/0001".."synth/0032"): each runs the full differential check —
// functional oracle, simulated original, simulated prefetch-transformed
// — and reports the scenario's cycle counts and decoupling. That makes
// generated scenarios sweepable like any paper figure, listable and
// selectable in `dta exp`, and addressable through dtad run keys
// (which fold in the generator version) with zero extra plumbing.
func init() {
	for _, seed := range synth.CorpusSeeds() {
		seed := seed
		register(&Experiment{
			ID:    synth.ExperimentID(seed),
			Title: fmt.Sprintf("synth corpus seed %d: %s", seed, synth.FromSeed(seed).Summary()),
			Paper: "beyond the paper: generated scenario, oracle/original/prefetched differential",
			Run:   func(ctx *Context) (*Outcome, error) { return runSynth(ctx, seed) },
		})
	}
}

func runSynth(ctx *Context, seed uint64) (*Outcome, error) {
	sc := synth.ScenarioFor(seed, ctx.Opt.Seed)
	// The scenario owns its machine size the way Quick owns paper
	// problem sizes, but the Options SPE budget still caps it, so a
	// spes=1 sweep genuinely runs single-SPE machines. Quick is inert
	// here: generated scenarios are already quick-sized by design.
	if sc.SPEs > ctx.Opt.SPEs {
		sc.SPEs = ctx.Opt.SPEs
	}
	rep, err := synth.CheckScenario(sc, synth.CheckOptions{
		Latency: ctx.Opt.Latency,
		Pool:    ctx.pool,
	})
	if err != nil {
		return nil, err
	}
	// The differential check has no run cache, so the represented cycles
	// are exactly the two simulated runs.
	*ctx.simCycles += int64(rep.OrigCycles) + int64(rep.PFCycles)
	speedup := float64(rep.OrigCycles) / float64(rep.PFCycles)
	t := &stats.Table{
		Title:   fmt.Sprintf("synth %d — %s", seed, rep.Scenario.Summary()),
		Headers: []string{"metric", "original", "prefetching"},
	}
	t.AddRow("cycles", fmt.Sprintf("%d", rep.OrigCycles), fmt.Sprintf("%d", rep.PFCycles))
	t.AddRow("memory-stall cycles", fmt.Sprintf("%d", rep.OrigStall), fmt.Sprintf("%d", rep.PFStall))
	t.AddRow("speedup", "1.00x", stats.Ratio(speedup))
	return &Outcome{
		Tables: []*stats.Table{t},
		Notes: []string{fmt.Sprintf(
			"differential check passed: oracle, original and prefetched runs byte-identical "+
				"(%d oracle steps, %d threads, %.0f%% of static reads decoupled)",
			rep.OracleSteps, rep.Threads, 100*rep.Decoupled)},
		Metrics: map[string]float64{
			"orig_cycles": float64(rep.OrigCycles),
			"pf_cycles":   float64(rep.PFCycles),
			"speedup":     speedup,
			"decoupled":   rep.Decoupled,
			"code_len":    float64(rep.CodeLen),
		},
	}, nil
}
