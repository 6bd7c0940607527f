// Benchmarks that regenerate every table and figure of the paper's
// evaluation at full problem size (bitcnt(10000), mmul(32), zoom(32), 8
// SPEs, 150-cycle memory). Each benchmark executes the corresponding
// harness experiment and reports the headline numbers as custom metrics,
// so `go test -bench=.` reproduces the paper end to end:
//
//	BenchmarkFig7Mmul-8  1  ... speedup-8spu=14.0 ...
//
// Absolute cycle counts are not expected to match the authors' CellSim
// (see EXPERIMENTS.md); the reported shapes are the reproduction target.
package celldta

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

// runExperiment executes one harness experiment b.N times and reports
// the chosen metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var out *harness.Outcome
	for i := 0; i < b.N; i++ {
		// A fresh context per iteration: the run cache must not turn
		// repeat iterations into no-ops.
		ctx := harness.NewContext(harness.Options{SPEs: 8, Latency: 150})
		var err error
		out, err = exp.Run(ctx)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	for _, m := range metrics {
		v, ok := out.Metrics[m]
		if !ok {
			b.Fatalf("%s: metric %q missing (have %v)", id, m, metricNames(out))
		}
		b.ReportMetric(v, m)
	}
	if testing.Verbose() {
		out.Print(io.Discard)
	}
}

func metricNames(out *harness.Outcome) []string {
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names) // deterministic failure messages
	return names
}

// --- Paper tables 2-4 (configuration) ---

func BenchmarkTable2MemoryParams(b *testing.B) {
	runExperiment(b, "table2", "mem_latency", "ls_latency")
}

func BenchmarkTable3DMAParams(b *testing.B) {
	runExperiment(b, "table3")
}

func BenchmarkTable4BusParams(b *testing.B) {
	runExperiment(b, "table4", "buses", "mfc_queue", "mfc_latency")
}

// --- Figure 5: SPU time breakdowns ---

func BenchmarkFig5aBreakdownNoPrefetch(b *testing.B) {
	runExperiment(b, "fig5a",
		"bitcnt_mem_pct", "mmul_mem_pct", "zoom_mem_pct")
}

func BenchmarkFig5bBreakdownPrefetch(b *testing.B) {
	runExperiment(b, "fig5b",
		"bitcnt_mem_pct", "mmul_mem_pct", "zoom_mem_pct",
		"bitcnt_prefetch_pct", "mmul_prefetch_pct", "zoom_prefetch_pct")
}

// --- Table 5: dynamic instruction counts ---

func BenchmarkTable5InstructionCounts(b *testing.B) {
	runExperiment(b, "table5",
		"mmul_read", "mmul_write", "zoom_read", "zoom_write", "bitcnt_read")
}

// --- Figures 6-8: execution time and scalability ---

func BenchmarkFig6Bitcnt(b *testing.B) {
	runExperiment(b, "fig6", "speedup_8spu", "scalability_orig", "scalability_pf")
}

func BenchmarkFig7Mmul(b *testing.B) {
	runExperiment(b, "fig7", "speedup_8spu", "scalability_orig", "scalability_pf")
}

func BenchmarkFig8Zoom(b *testing.B) {
	runExperiment(b, "fig8", "speedup_8spu", "scalability_orig", "scalability_pf")
}

// --- Figure 9: pipeline usage ---

func BenchmarkFig9PipelineUsage(b *testing.B) {
	runExperiment(b, "fig9",
		"mmul_usage_orig", "mmul_usage_pf", "zoom_usage_pf", "bitcnt_usage_pf")
}

// --- Section 4.3: latency-1 (always-hit) study ---

func BenchmarkLatency1Study(b *testing.B) {
	runExperiment(b, "lat1",
		"bitcnt_speedup", "mmul_speedup", "zoom_speedup")
}

// --- Ablations (EXPERIMENTS.md "Ablations") ---

func BenchmarkAblationVirtualFP(b *testing.B) {
	runExperiment(b, "ablation-vfp", "blocking16_cycles", "vfp16_cycles")
}

func BenchmarkAblationDMALatency(b *testing.B) {
	runExperiment(b, "ablation-dmalat", "cycles_lat0", "cycles_lat120")
}

func BenchmarkAblationBuses(b *testing.B) {
	runExperiment(b, "ablation-buses", "cycles_1buses", "cycles_4buses")
}

func BenchmarkAblationMemLatency(b *testing.B) {
	runExperiment(b, "ablation-memlat", "speedup_lat1", "speedup_lat150", "speedup_lat600")
}

func BenchmarkAblationNodes(b *testing.B) {
	runExperiment(b, "ablation-nodes", "cycles_1nodes", "cycles_2nodes")
}

func BenchmarkAblationGranularity(b *testing.B) {
	runExperiment(b, "ablation-granularity", "perrow_cmds", "whole_cmds")
}

func BenchmarkAblationWriteback(b *testing.B) {
	runExperiment(b, "ablation-writeback",
		"posted_cycles", "writeback_cycles", "posted_messages", "writeback_messages")
}

// --- End-to-end public-API benchmarks (simulation throughput) ---

func benchmarkRun(b *testing.B, workload string, pf bool) {
	for i := 0; i < b.N; i++ {
		res, err := Run(RunOptions{
			Workload: workload,
			Prefetch: pf,
			Params:   Params{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
		b.ReportMetric(res.Agg.Breakdown.StallPct(), "stall-pct")
		b.ReportMetric(float64(res.Agg.Causes[stats.CauseBlockingRead]), "blocking-read-cycles")
	}
}

func BenchmarkRunMmulOriginal(b *testing.B)   { benchmarkRun(b, "mmul", false) }
func BenchmarkRunMmulPrefetch(b *testing.B)   { benchmarkRun(b, "mmul", true) }
func BenchmarkRunZoomOriginal(b *testing.B)   { benchmarkRun(b, "zoom", false) }
func BenchmarkRunZoomPrefetch(b *testing.B)   { benchmarkRun(b, "zoom", true) }
func BenchmarkRunBitcntOriginal(b *testing.B) { benchmarkRun(b, "bitcnt", false) }
func BenchmarkRunBitcntPrefetch(b *testing.B) { benchmarkRun(b, "bitcnt", true) }

// Example of the one-call API (also serves as a doc test).
func ExampleRun() {
	res, err := Run(RunOptions{Workload: "vecsum", Prefetch: true, Params: Params{N: 256, Seed: 7}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("tokens:", len(res.Tokens))
	// Output: tokens: 1
}
