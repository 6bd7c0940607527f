package harness

import (
	"runtime"
	"testing"

	"repro/internal/cell"
)

// sweepIDs is the 8-experiment sweep the sweep benchmark runs: the
// paper's figures plus the latency study.
var sweepIDs = []string{"fig5a", "fig5b", "table5", "fig6", "fig7", "fig8", "fig9", "lat1"}

func sweepExperiments(t testing.TB) []*Experiment {
	t.Helper()
	exps := make([]*Experiment, 0, len(sweepIDs))
	for _, id := range sweepIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// BenchmarkHarnessSharedSweep is what `dta exp` does and the
// benchmark's paper-sweep measures: the 8-experiment sweep on ONE
// NewContext with RunOn per experiment, so the run cache is shared
// across experiments and each experiment's declared runs spread over
// the cores (runAll). It reports how many cores the sweep may occupy
// ("cores" is the ceiling — experiments with one machine configuration
// occupy a single core) and the simulated cycles it represents per
// iteration, from which sim-cycles/sec/core follows.
func BenchmarkHarnessSharedSweep(b *testing.B) {
	exps := sweepExperiments(b)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		ctx := NewContext(quickOpts())
		for _, e := range exps {
			r := RunOn(ctx, e)
			if r.Err != nil {
				b.Fatalf("%s: %v", e.ID, r.Err)
			}
			cycles += r.SimCycles
		}
	}
	// After the loop: metrics reported before b.N iterations run are
	// discarded by the testing package.
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}

// benchmarkPhaseSweep is the warm-up-heavy workload the checkpoint
// cache targets: per benchmark, one cold baseline plus six mid-run
// memory-latency variants that all share the first 3/4 of the baseline
// run as their warm-up prefix. With checkpointing the prefix is
// simulated once per benchmark and every sibling variant restores from
// the snapshot; cold=true disables the cache so the same sweep
// re-simulates every prefix — the before/after pair of the checkpoint
// machinery.
//
// Both variants report identical "sim-cycles" (the cycles the sweep
// REPRESENTS, the same accounting as the other sweep benchmarks), so
// the checkpoint gain shows up purely in ns/op; "sim-cycles-saved"
// reports the execution actually skipped, and "checkpoint-hit-ratio"
// the cache's share of fork requests.
func benchmarkPhaseSweep(b *testing.B, cold bool) {
	b.ResetTimer()
	var cycles, hits, misses, saved int64
	for i := 0; i < b.N; i++ {
		h0 := CheckpointHits.Load()
		m0 := CheckpointMisses.Load()
		s0 := CheckpointCyclesSaved.Load()
		ctx := NewContext(quickOpts())
		if cold {
			ctx.SetCheckpointCache(nil)
		}
		for _, bench := range benchmarks {
			base, err := ctx.runOne(ctx.spec(bench, ctx.Opt.SPEs, true))
			if err != nil {
				b.Fatalf("%s: %v", bench, err)
			}
			div := base.Cycles * 3 / 4
			for _, factor := range []int{2, 3, 4, 5, 6, 7} {
				knobs := cell.Knobs{MemLatency: ctx.Opt.Latency * factor}
				if _, err := ctx.runOne(ctx.phaseSpec(bench, ctx.Opt.SPEs, knobs, div)); err != nil {
					b.Fatalf("%s x%d: %v", bench, factor, err)
				}
			}
		}
		cycles += *ctx.simCycles
		hits += CheckpointHits.Load() - h0
		misses += CheckpointMisses.Load() - m0
		saved += CheckpointCyclesSaved.Load() - s0
	}
	b.ReportMetric(1, "cores")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
	ratio := 0.0
	if total := hits + misses; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	b.ReportMetric(ratio, "checkpoint-hit-ratio")
	b.ReportMetric(float64(saved)/float64(b.N), "sim-cycles-saved")
}

// BenchmarkHarnessCheckpointSweep: the phase sweep with the checkpoint
// cache on — each benchmark's warm-up prefix is simulated once and the
// other five variants fork from the snapshot.
func BenchmarkHarnessCheckpointSweep(b *testing.B) {
	benchmarkPhaseSweep(b, false)
}

// BenchmarkHarnessColdPhaseSweep: the identical sweep with the
// checkpoint cache removed (SetCheckpointCache(nil)) — every variant re-simulates its warm-up
// prefix. The ns/op gap to BenchmarkHarnessCheckpointSweep is the
// checkpoint machinery's end-to-end gain on a warm-up-heavy sweep.
func BenchmarkHarnessColdPhaseSweep(b *testing.B) {
	benchmarkPhaseSweep(b, true)
}
