// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the ablations documented in EXPERIMENTS.md) on the CellDTA
// reproduction.
//
// Usage:
//
//	experiments [-only id[,id...]] [-spes n] [-latency n] [-quick] [-list] [-parallel n]
//	            [-batch k] [-json] [-trace path] [-profile path]
//	            [-cpuprofile path] [-memprofile path]
//
// -trace path records every simulation the serial runner executes and
// writes one Chrome trace-event document (Perfetto/chrome://tracing)
// with per-SPE dispatch, DMA, NoC and thread-lifecycle tracks; see
// OBSERVABILITY.md. Recording requires the serial runner.
//
// -profile path enables the guest cycle profiler on every simulation
// the serial runner executes and writes one gzipped pprof protobuf
// attributing simulated SPU cycles to (program, template block, PC,
// stall cause) — inspect with `go tool pprof -top path`. This profiles
// the simulated machine; -cpuprofile/-memprofile profile the simulator
// process itself (see OBSERVABILITY.md).
//
// With no flags it runs the full paper suite at the paper's operating
// point (8 SPEs, 150-cycle memory, full problem sizes) followed by the
// pinned synth corpus: generated scenarios (synth/0001..synth/0032,
// see FUZZING.md) are first-class experiments — they appear in -list,
// run by name through -only, and sweep like any paper figure. By default
// (-parallel 0) the experiments run in order on ONE shared context:
// repeated configurations hit its run cache, each experiment declares
// the simulations it needs, and the mutually independent ones — distinct
// machine configurations — are simulated on every core, each
// single-threaded on a machine of its own; results stream as experiments
// complete (-trace and -profile keep this runner serial: one simulation
// at a time). -parallel n instead fans whole experiments out over n workers
// (n < 0 means one per CPU); each experiment then runs in its own
// isolated context, without the shared run cache, and the output is
// printed in the usual order once results are in. -batch k
// with k > 1 interleaves up to k experiments per worker cooperatively
// (simulations advance in bounded slices and the worker's run cache is
// shared across its batch), producing byte-identical results to the
// serial runner. -json
// switches stdout to NDJSON — one object per experiment (id, run key,
// tables, metrics, elapsed) in the same shape the dtad sweep stream
// serves, so piped consumers need only one decoder.
//
// Failed experiments no longer abort the run: every selected experiment
// is reported (completed results in full, failures on stderr and in the
// NDJSON error field) and the exit status is 1 if any failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/profiling"
	"repro/internal/service"
)

func main() {
	var (
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		spes      = flag.Int("spes", 8, "number of SPEs")
		latency   = flag.Int("latency", 150, "main-memory latency in cycles")
		quick     = flag.Bool("quick", false, "shrink problem sizes for a fast pass")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		metrics   = flag.Bool("metrics", false, "also print machine-readable metrics")
		seed      = flag.Uint64("seed", 42, "workload input seed")
		parallel  = flag.Int("parallel", 0, "run experiments on n isolated workers (0 = one shared run cache, each experiment's runs spread over all cores; <0 = one worker per CPU)")
		batchW    = flag.Int("batch", 1, "experiments interleaved per worker (>1 enables the batched runner)")
		jsonOut   = flag.Bool("json", false, "emit NDJSON outcomes (one object per experiment) instead of tables")
		tracePath = flag.String("trace", "", "write a Chrome trace-event timeline of every simulation to this file (serial mode only)")
		profPath  = flag.String("profile", "", "write a guest cycle profile (pprof format, gzipped) of every simulation to this file (serial mode only)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *tracePath != "" && (*parallel != 0 || *batchW > 1) {
		fmt.Fprintln(os.Stderr, "-trace requires the serial runner (drop -parallel/-batch)")
		os.Exit(2)
	}
	if *profPath != "" && (*parallel != 0 || *batchW > 1) {
		fmt.Fprintln(os.Stderr, "-profile requires the serial runner (drop -parallel/-batch)")
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := harness.All()
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opt := harness.Options{SPEs: *spes, Latency: *latency, Quick: *quick, Seed: *seed}

	failed := 0
	report := func(r harness.RunResult) {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.Experiment.ID, r.Err)
		}
		if *jsonOut {
			if err := reportJSON(opt, r); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "encode %s: %v\n", r.Experiment.ID, err)
			}
		} else if r.Err == nil {
			reportText(r, *metrics)
		}
	}

	start := time.Now()
	if *batchW > 1 {
		// Batched mode: -parallel still picks the worker count (0 keeps
		// the serial default of one worker, <0 means one per CPU), and
		// each worker interleaves up to -batch experiments.
		workers := *parallel
		if workers == 0 {
			workers = 1
		} else if workers < 0 {
			workers = 0 // Batched resolves 0 to one worker per CPU
		}
		for _, r := range harness.Batched(opt, selected, workers, *batchW) {
			report(r)
		}
	} else if *parallel != 0 {
		// Parallel mode necessarily waits for the pool; results still
		// print in presentation order.
		for _, r := range harness.Parallel(opt, selected, *parallel) {
			report(r)
		}
	} else {
		// Default mode shares one context: repeated configurations hit
		// its run cache, each experiment's independent runs spread over
		// the cores (recording and profiling keep them one at a time),
		// and each experiment is reported as it completes (full-size
		// sweeps take hours — output must stream).
		ctx := harness.NewContext(opt)
		if *tracePath != "" {
			ctx.EnableRecording(0)
		}
		if *profPath != "" {
			ctx.EnableProfiling()
		}
		for _, e := range selected {
			report(harness.RunOn(ctx, e))
		}
		if *tracePath != "" {
			if err := writeTraceFile(*tracePath, ctx.Recorded()); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		}
		if *profPath != "" {
			if err := writeProfileFile(*profPath, ctx.Profiled()); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			}
		}
	}
	if !*jsonOut {
		fmt.Printf("==== sweep wall time %.1fs over %d experiments (%d failed)\n",
			time.Since(start).Seconds(), len(selected), failed)
	}
	if failed > 0 {
		stopProf() // os.Exit skips deferred functions
		os.Exit(1)
	}
}

// writeTraceFile dumps every simulation the context recorded as one
// Chrome trace-event document (load in Perfetto or chrome://tracing;
// see OBSERVABILITY.md).
func writeTraceFile(path string, recorded []harness.RecordedRun) error {
	if len(recorded) == 0 {
		return fmt.Errorf("no simulations recorded (every run was a cache hit?)")
	}
	runs := make([]obs.TraceRun, len(recorded))
	for i, rr := range recorded {
		runs[i] = obs.TraceRun{Label: rr.Label, SPEs: rr.SPEs, Rec: rr.Rec}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, runs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d simulation timelines to %s\n", len(runs), path)
	return nil
}

// writeProfileFile dumps every simulation the context profiled as one
// gzipped pprof protobuf (inspect with `go tool pprof`; see
// OBSERVABILITY.md).
func writeProfileFile(path string, profiled []harness.ProfiledRun) error {
	if len(profiled) == 0 {
		return fmt.Errorf("no simulations profiled (every run was a cache hit?)")
	}
	runs := make([]prof.Run, len(profiled))
	for i, pr := range profiled {
		runs[i] = prof.Run{Label: pr.Label, Prog: pr.Prog, Prof: pr.Prof}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prof.Write(f, runs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profile: wrote %d simulation profiles to %s\n", len(runs), path)
	return nil
}

// reportText renders one result the classic human-readable way.
func reportText(r harness.RunResult, metrics bool) {
	e, out := r.Experiment, r.Outcome
	fmt.Printf("==== %s — %s\n", e.ID, e.Title)
	fmt.Printf("     paper: %s\n\n", e.Paper)
	out.Print(os.Stdout)
	if metrics {
		keys := make([]string, 0, len(out.Metrics))
		for k := range out.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("metric %s.%s = %.4f\n", e.ID, k, out.Metrics[k])
		}
	}
	fmt.Printf("     (%.1fs)\n\n", r.Elapsed.Seconds())
}

// reportJSON emits one NDJSON line via the shared service encoder, so
// CLI batches and dtad streams produce the same shape. An encoding
// failure (e.g. a NaN metric, unrepresentable in JSON) still emits an
// error line — consumers always see one object per experiment — and is
// returned so the sweep exits non-zero.
func reportJSON(opt harness.Options, r harness.RunResult) error {
	line, err := service.EncodeRunResult(opt, r)
	if err != nil {
		fallback, _ := json.Marshal(service.RunLine{
			Experiment: r.Experiment.ID,
			Key:        service.RunKey(r.Experiment.ID, opt),
			ElapsedMS:  r.Elapsed.Milliseconds(),
			Error:      fmt.Sprintf("encode: %v", err),
		})
		os.Stdout.Write(append(fallback, '\n'))
		return err
	}
	os.Stdout.Write(append(line, '\n'))
	return nil
}
