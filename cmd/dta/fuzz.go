package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/synth"
)

// setupFuzz: `dta fuzz` drives the synth differential fuzzer. It
// generates scenario programs from seeds, runs each three ways
// (functional oracle, simulated original, simulated
// prefetch-transformed) and fails on any divergence, deadlock or
// guard-band violation. -trace and -profile re-run one scenario's two
// simulations: the seed of a -seeds 1 run, or the minimised reproducer
// after -shrink. Seeds fan out over -workers goroutines; every check is
// independent and deterministic, so parallel and serial sweeps find
// exactly the same failures.
func setupFuzz(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "latency", "workers", "trace", "profile", "cpuprofile", "memprofile")
	seeds := fs.Int("seeds", 64, "number of seeds to check (ignored with -duration)")
	start := fs.Uint64("start", 1, "first seed")
	duration := fs.Duration("duration", 0, "time budget: check increasing seeds from -start until it expires")
	shrink := fs.Bool("shrink", false, "shrink the lowest failing seed to a minimal reproducer")
	out := fs.String("out", "synth-repro.txt", "reproducer path (with -shrink)")
	verbose := fs.Bool("v", false, "log every seed, not just failures")
	diffB := fs.Bool("diffburst", false, "also run every simulation single-step and fail on any burst fast-path divergence")
	diffCkpt := fs.Bool("checkpoint", false, "also re-run every simulation through a snapshot/restore seam at its halfway boundary and fail on any divergence, or if the restored machine re-encodes to other bytes")
	return func(args []string) error {
		if len(args) > 0 {
			return usagef("unexpected operands %q", args)
		}
		if *seeds <= 0 {
			return usagef("-seeds %d: want at least 1", *seeds)
		}
		oneSeed := *seeds == 1 && *duration == 0
		if (sh.trace != "" || sh.profile != "") && !oneSeed && !*shrink {
			return usagef("-trace and -profile record one scenario: add -seeds 1 or -shrink")
		}
		opt := synth.CheckOptions{Latency: sh.latency, DiffBurst: *diffB, DiffCheckpoint: *diffCkpt}
		workers := sh.workers
		if workers == 0 {
			workers = runtime.NumCPU()
		}

		// Seed feed: a fixed range, or a deadline-bounded open-ended
		// stream.
		seedCh := make(chan uint64)
		go func() {
			defer close(seedCh)
			if *duration > 0 {
				deadline := time.Now().Add(*duration)
				for s := *start; time.Now().Before(deadline); s++ {
					seedCh <- s
				}
				return
			}
			for s := *start; s < *start+uint64(*seeds); s++ {
				seedCh <- s
			}
		}()

		// Outcomes stream as they complete (failures to stderr
		// immediately — a long -duration run must not sit silent on a
		// hit, nor buffer per-seed Reports for hours); only counters and
		// the lowest failing seed are retained.
		began := time.Now()
		var mu sync.Mutex
		var checked, failures, pfWins int
		var firstSeed uint64
		var firstErr error
		record := func(seed uint64, rep *synth.Report, err error) {
			mu.Lock()
			defer mu.Unlock()
			checked++
			if err != nil {
				failures++
				if firstErr == nil || seed < firstSeed {
					firstSeed, firstErr = seed, err
				}
				fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", seed, err)
				return
			}
			if rep.PFCycles < rep.OrigCycles {
				pfWins++
			}
			if *verbose {
				fmt.Printf("ok seed %d: %s orig=%d pf=%d decoupled=%.0f%%\n",
					seed, rep.Scenario.Summary(), rep.OrigCycles, rep.PFCycles,
					100*rep.Decoupled)
			}
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				// Per-worker machine pool: every seed on this goroutine
				// reuses built machines; pools never cross goroutines.
				wopt := opt
				wopt.Pool = cell.NewPool()
				for seed := range seedCh {
					rep, err := synth.CheckSeed(seed, wopt)
					record(seed, rep, err)
				}
			}()
		}
		wg.Wait()
		fmt.Printf("dta fuzz: %d seeds in %.1fs, %d failed, prefetch faster on %d/%d (generator %s)\n",
			checked, time.Since(began).Seconds(), failures, pfWins, checked-failures,
			synth.GenVersion)

		var errs []error
		if oneSeed {
			// The single checked seed; a shrink below overwrites the
			// files with the minimised scenario's.
			errs = append(errs, writeScenario(synth.FromSeed(*start), opt, sh))
		}
		if failures > 0 {
			if *shrink {
				errs = append(errs, shrinkFailure(firstSeed, firstErr, opt, *out, sh))
			}
			errs = append(errs, fmt.Errorf("%d of %d seeds failed", failures, checked))
		}
		return errors.Join(errs...)
	}
}

// shrinkFailure minimises the lowest failing seed, writes its
// reproducer to out and, with -trace or -profile, the minimised
// scenario's timeline and guest profile.
func shrinkFailure(seed uint64, failure error, opt synth.CheckOptions, out string, sh *shared) error {
	de, ok := failure.(*synth.DivergenceError)
	if !ok {
		return fmt.Errorf("cannot shrink non-divergence error: %w", failure)
	}
	res, err := synth.Shrink(de.Scenario, opt)
	if err != nil {
		return fmt.Errorf("shrink: %w", err)
	}
	fmt.Fprintf(os.Stderr, "shrunk seed %d to %d instructions (%d probes): %s\n",
		seed, res.CodeLen, res.Probes, res.Minimal.Summary())
	err = writeFile(out, func(w io.Writer) error { return synth.WriteReproducer(w, res, opt) })
	if err != nil {
		return fmt.Errorf("reproducer write to %s FAILED (artifact may be truncated): %w", out, err)
	}
	fmt.Fprintf(os.Stderr, "reproducer written to %s\n", out)
	return writeScenario(res.Minimal, opt, sh)
}

// writeScenario re-runs a scenario's original and prefetch-transformed
// simulations, once each, for -trace (timeline recording) and -profile
// (the guest cycle profile every machine keeps), each pair into one
// file.
func writeScenario(sc synth.Scenario, opt synth.CheckOptions, sh *shared) error {
	if sh.trace == "" && sh.profile == "" {
		return nil
	}
	runs, err := synth.ObserveScenario(sc, opt, sh.trace != "")
	if err != nil {
		return fmt.Errorf("observe: %w", err)
	}
	return writeObserved(sh, runs)
}
