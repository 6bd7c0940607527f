package synth

import (
	"runtime"
	"testing"

	"repro/internal/cell"
)

// benchSeeds is how many consecutive seeds one BenchmarkCheckSeed
// iteration checks: enough for the scenario mix (SPE counts, template
// shapes, image sizes) to average out, so ns/seed compares across
// commits.
const benchSeeds = 500

// BenchmarkCheckSeed measures the differential check the way dtafuzz and
// the benchmark's fuzz-corpus workload pay for it: consecutive seeds
// through one cell.Pool, so machines are reset, not built. Most of a
// check is fixed cost (generate, validate, reset, compare), not
// simulation; ns/seed, B/seed and allocs/seed are the numbers
// EXPERIMENTS.md "Fixed costs of a seed check" quotes.
func BenchmarkCheckSeed(b *testing.B) {
	opt := CheckOptions{Pool: cell.NewPool()}
	pass := func() {
		for seed := uint64(1); seed <= benchSeeds; seed++ {
			if _, err := CheckSeed(seed, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // fill the pool: every machine configuration of the range is built here
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	seeds := float64(b.N) * benchSeeds
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/seeds, "ns/seed")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/seeds, "B/seed")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/seeds, "allocs/seed")
}
