package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// setupExp: `dta exp` regenerates every table and figure of the
// paper's evaluation, the ablations documented in EXPERIMENTS.md and
// the pinned synth corpus (synth/0001..synth/0032, see FUZZING.md).
// With no flags it runs them all at the paper's operating point (8
// SPEs, 150-cycle memory, full problem sizes). The selected experiments
// run in order on ONE shared context: repeated configurations hit its
// run cache, and each experiment's mutually independent simulations run
// on every core, each single-threaded on a machine of its own (-trace
// and -profile too: the observed runs are kept in the order the runs
// were declared). Results stream as experiments
// complete; -json prints them as NDJSON in the shape the dtad sweep
// stream serves, so piped consumers need only one decoder. A failed
// experiment does not abort the sweep (it is reported on stderr and in
// the NDJSON error field), but the command fails.
func setupExp(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "spes", "latency", "quick", "seed", "trace", "profile", "cpuprofile", "memprofile")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	metrics := fs.Bool("metrics", false, "also print machine-readable metrics")
	jsonOut := fs.Bool("json", false, "emit NDJSON outcomes (one object per experiment) instead of tables")
	return func(args []string) error {
		if len(args) > 0 {
			return usagef("unexpected operands %q", args)
		}
		if *list {
			for _, e := range harness.All() {
				fmt.Printf("%-20s %s\n", e.ID, e.Title)
			}
			return nil
		}
		selected := harness.All()
		if *only != "" {
			selected = nil
			for _, id := range strings.Split(*only, ",") {
				e, ok := harness.ByID(strings.TrimSpace(id))
				if !ok {
					return usagef("unknown experiment %q; use -list", id)
				}
				selected = append(selected, e)
			}
		}

		opt := harness.Options{SPEs: sh.spes, Latency: sh.latency, Quick: sh.quick, Seed: sh.seed}
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
		ctx := harness.NewContext(opt)
		ctx.Observe(sh.trace != "", sh.profile != "")
		for _, e := range selected {
			report(harness.RunOn(ctx, e))
		}
		// A -trace or -profile file that cannot be written is an error of
		// its own, not an experiment failure: the sweep line counts
		// experiments only.
		var observeErr error
		if sh.trace != "" || sh.profile != "" {
			observeErr = writeObserved(sh, ctx.Observed())
		}
		if !*jsonOut {
			fmt.Printf("==== sweep wall time %.1fs over %d experiments (%d failed)\n",
				time.Since(start).Seconds(), len(selected), failed)
		}
		var sweepErr error
		if failed > 0 {
			sweepErr = fmt.Errorf("%d failures over %d experiments", failed, len(selected))
		}
		return errors.Join(sweepErr, observeErr)
	}
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
// returned so the sweep fails.
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
