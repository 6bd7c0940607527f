// Command benchjson is the benchmark-trajectory wrapper: it runs the
// simulation-throughput benchmarks (`go test -bench`), parses the
// standard benchmark output and emits a machine-readable
// BENCH_simthroughput.json so every PR records a comparable
// before/after pair. It also implements the regression gate used by the
// CI perf-smoke job.
//
// Usage:
//
//	benchjson [-out BENCH_simthroughput.json] [-benchtime 3x] [-count 1]
//	          [-compare BENCH_simthroughput.baseline.json] [-max-regress 25]
//
// Modes:
//
//	(default)      run the benchmark set, write -out, print a summary
//	-compare path  after running, compare ns/op against the baseline
//	               file and exit 1 when any benchmark regressed by more
//	               than -max-regress percent
//
// The benchmark set is the six end-to-end BenchmarkRun* benchmarks of
// the root package (bitcnt/mmul/zoom × original/prefetch), the serial,
// shared-context, batched and checkpoint/cold phase-sweep benchmarks of
// internal/harness, and the internal/cell batch-scheduler A/B
// (round-robin vs horizon-aware at widths 4/16/64, with slices and
// switches metrics), all with -benchmem, so the JSON carries ns/op,
// B/op, allocs/op, the derived simulated cycles per wall-clock second,
// per-core throughput (via the custom cores metric) and a suite-wide
// aggregate sim_cycles_per_sec_per_core. The checkpoint pair
// additionally reports checkpoint-hit-ratio and sim-cycles-saved: the
// ns/op gap between BenchmarkHarnessCheckpointSweep and
// BenchmarkHarnessColdPhaseSweep is the warm-up-sharing gain on a
// warm-up-heavy sweep (see EXPERIMENTS.md "Checkpoint/fork").
//
// Caveat: ns/op is machine-dependent, so comparing against a baseline
// recorded on different hardware partly measures the hardware. The
// committed baseline predates the burst fast path, leaving a 2-3x
// margin before the CI gate's 25% threshold can trip on slower
// runners; refresh it with `make bench-baseline` when landing
// intentional perf changes (see EXPERIMENTS.md "Performance" and the
// ROADMAP item on per-runner baselines).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SimCycles is the custom sim-cycles metric reported by the
	// BenchmarkRun* benchmarks (0 when a benchmark does not report it).
	SimCycles float64 `json:"sim_cycles,omitempty"`
	// Cores is the custom cores metric: how many CPU cores the
	// benchmark occupies (0 when not reported; treated as 1).
	Cores float64 `json:"cores,omitempty"`
	// SimCyclesPerSec = SimCycles / (NsPerOp ns) — the simulator's
	// headline throughput number.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	// SimCyclesPerSecPerCore = SimCyclesPerSec / Cores — the
	// per-core efficiency number batched execution is judged by, and
	// the one that stays comparable between single-core and fanned-out
	// runners.
	SimCyclesPerSecPerCore float64 `json:"sim_cycles_per_sec_per_core,omitempty"`
	// StallPct is the custom stall-pct metric: the share of simulated
	// SPU cycles spent in stall buckets (memory/LS/LSE), reported by
	// the BenchmarkRun* benchmarks.
	StallPct float64 `json:"stall_pct,omitempty"`
	// BlockingReadCycles is the custom blocking-read-cycles metric:
	// simulated cycles stalled on blocking READ instructions — the
	// stall class DMA prefetching exists to remove, so the prefetch
	// variants should report ~0.
	BlockingReadCycles float64 `json:"blocking_read_cycles,omitempty"`
	// CheckpointHitRatio is the custom checkpoint-hit-ratio metric:
	// the share of fork requests served from a cached warm-up snapshot
	// (reported by the checkpoint sweep benchmark pair; 0 for the cold
	// baseline by construction).
	CheckpointHitRatio float64 `json:"checkpoint_hit_ratio,omitempty"`
	// SimCyclesSaved is the custom sim-cycles-saved metric: simulated
	// cycles per iteration that snapshot restores skipped instead of
	// re-executing.
	SimCyclesSaved float64 `json:"sim_cycles_saved,omitempty"`
	// Slices is the custom slices metric: scheduler advances (one
	// resume-to-yield step of a machine or fiber) per iteration,
	// reported by the batch benchmarks.
	Slices float64 `json:"slices,omitempty"`
	// FiberSwitches is the custom switches metric: the advances that
	// changed machine/fiber — the context-switch share of Slices, which
	// horizon-aware scheduling minimises relative to round-robin.
	FiberSwitches float64 `json:"fiber_switches,omitempty"`
}

// Document is the BENCH_simthroughput.json layout.
type Document struct {
	Generated string   `json:"generated"`
	GoVersion string   `json:"go_version"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
	// AggregateSimCyclesPerSecPerCore summarises every result that
	// reports sim-cycles: total simulated cycles divided by total
	// core-seconds (Σ cycles / Σ ns/op × cores) — one number for "how
	// many cycles does a core simulate per second across the suite".
	AggregateSimCyclesPerSecPerCore float64 `json:"aggregate_sim_cycles_per_sec_per_core,omitempty"`
}

// suite describes one `go test -bench` invocation.
type suite struct {
	pkg     string
	pattern string
}

var suites = []suite{
	{pkg: ".", pattern: "^BenchmarkRun(Mmul|Zoom|Bitcnt)(Original|Prefetch)$"},
	{pkg: "./internal/harness", pattern: "^BenchmarkHarness(Serial|Shared|Batched|Checkpoint|ColdPhase)Sweep$"},
	// The batch-scheduler A/B: the same 64-scenario stream under
	// round-robin and horizon-aware scheduling at three widths, with
	// slices/switches quantifying the scheduling-overhead difference.
	{pkg: "./internal/cell", pattern: "^BenchmarkBatch(Horizon)?SweepW(4|16|64)$"},
}

func main() {
	var (
		out        = flag.String("out", "BENCH_simthroughput.json", "output JSON path")
		benchtime  = flag.String("benchtime", "3x", "value for go test -benchtime")
		count      = flag.Int("count", 1, "value for go test -count")
		compare    = flag.String("compare", "", "baseline JSON to compare ns/op against")
		maxRegress = flag.Float64("max-regress", 25, "fail when ns/op regresses by more than this percent vs -compare")
	)
	flag.Parse()

	doc := Document{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: goVersion(),
		Benchtime: *benchtime,
	}
	for _, s := range suites {
		results, err := runSuite(s, *benchtime, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, results...)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}
	doc.aggregate()

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	for _, r := range doc.Results {
		line := fmt.Sprintf("%-28s %14.0f ns/op %10d B/op %8d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.SimCyclesPerSec > 0 {
			line += fmt.Sprintf(" %12.0f sim-cycles/sec", r.SimCyclesPerSec)
		}
		if r.SimCyclesPerSecPerCore > 0 && r.Cores > 1 {
			line += fmt.Sprintf(" %12.0f sim-cycles/sec/core", r.SimCyclesPerSecPerCore)
		}
		if r.StallPct > 0 {
			line += fmt.Sprintf(" %5.1f stall-pct", r.StallPct)
		}
		if r.CheckpointHitRatio > 0 {
			line += fmt.Sprintf(" %5.2f checkpoint-hit-ratio", r.CheckpointHitRatio)
		}
		fmt.Println(line)
	}
	if doc.AggregateSimCyclesPerSecPerCore > 0 {
		fmt.Printf("aggregate %40.0f sim-cycles/sec/core\n", doc.AggregateSimCyclesPerSecPerCore)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *out, len(doc.Results))

	if *compare != "" {
		if err := compareBaseline(doc, *compare, *maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchLine matches `BenchmarkFoo-8  3  123456 ns/op  1 a-metric  2 B/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func runSuite(s suite, benchtime string, count int) ([]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", s.pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), s.pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	var results []Result
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Package: s.pkg}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		if err := parseMetrics(&r, m[3]); err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		r.derive()
		// -count > 1 repeats a name back to back: keep the fastest run.
		if n := len(results); n > 0 && results[n-1].Name == r.Name {
			if r.NsPerOp < results[n-1].NsPerOp {
				results[n-1] = r
			}
			continue
		}
		results = append(results, r)
	}
	return results, nil
}

// parseMetrics consumes the `value unit value unit ...` tail of a
// benchmark line.
func parseMetrics(r *Result, tail string) error {
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "sim-cycles":
			r.SimCycles = v
		case "cores":
			r.Cores = v
		case "stall-pct":
			r.StallPct = v
		case "blocking-read-cycles":
			r.BlockingReadCycles = v
		case "checkpoint-hit-ratio":
			r.CheckpointHitRatio = v
		case "sim-cycles-saved":
			r.SimCyclesSaved = v
		case "slices":
			r.Slices = v
		case "switches":
			r.FiberSwitches = v
		}
	}
	return nil
}

func (r *Result) derive() {
	if r.SimCycles > 0 && r.NsPerOp > 0 {
		r.SimCyclesPerSec = r.SimCycles / r.NsPerOp * 1e9
		cores := r.Cores
		if cores <= 0 {
			cores = 1
		}
		r.SimCyclesPerSecPerCore = r.SimCyclesPerSec / cores
	}
}

// aggregate computes the suite-wide per-core throughput over every
// result that reports simulated cycles.
func (d *Document) aggregate() {
	var cycles, coreNs float64
	for _, r := range d.Results {
		if r.SimCycles <= 0 || r.NsPerOp <= 0 {
			continue
		}
		cores := r.Cores
		if cores <= 0 {
			cores = 1
		}
		cycles += r.SimCycles
		coreNs += r.NsPerOp * cores
	}
	if coreNs > 0 {
		d.AggregateSimCyclesPerSecPerCore = cycles / coreNs * 1e9
	}
}

// compareBaseline fails when any benchmark present in both documents
// regressed in ns/op by more than maxRegress percent.
func compareBaseline(doc Document, path string, maxRegress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Document
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	failed := 0
	for _, r := range doc.Results {
		b, ok := baseline[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		deltaPct := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if deltaPct > maxRegress {
			status = "REGRESSED"
			failed++
		}
		fmt.Printf("compare %-28s baseline %14.0f ns/op now %14.0f ns/op (%+.1f%%) %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, deltaPct, status)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s", failed, maxRegress, path)
	}
	return nil
}
