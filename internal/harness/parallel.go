package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cell"
)

// RunResult is one experiment's outcome from a sweep run.
type RunResult struct {
	Experiment *Experiment
	Outcome    *Outcome
	Err        error
	Elapsed    time.Duration
	// SimCycles is the simulated cycles this experiment represents:
	// every simulation the experiment requested counts its cycle total,
	// whether it ran or was served from the run cache, so the number is
	// a property of the workload, not of the runner. Benchmarks divide
	// it by wall time for a sim-cycles/sec throughput measure.
	SimCycles int64
}

// Parallel executes experiments concurrently on a bounded worker pool
// and returns results in input order.
//
// Each experiment gets its own Context built from opt, so no run cache,
// program cache, or machine state is shared across goroutines: every
// simulation remains single-threaded and deterministic, and only the
// cross-simulation fan-out is concurrent. The price is the
// cross-experiment run cache: the committed sweep re-requests the same
// simulations across experiments, and isolated contexts recompute them.
// One shared NewContext keeps that cache and uses the cores as well —
// it spreads each experiment's declared runs (Context.runAll) instead
// of whole experiments — so Parallel pays only where experiments share
// little and outnumber the cores; BenchmarkHarnessSharedSweep and
// BenchmarkHarnessParallelSweep are the two sides of that comparison.
//
// workers <= 0 selects runtime.NumCPU(). A panic inside an experiment is
// contained to its worker and reported as that experiment's Err.
func Parallel(opt Options, exps []*Experiment, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]RunResult, len(exps))
	if len(exps) == 0 {
		return results
	}

	// Feed experiment indices to the pool; each result lands in its
	// input slot, so the output order never depends on scheduling.
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// One machine pool per worker: machines are recycled across
			// the experiments this goroutine runs, never across
			// goroutines, so simulations stay single-threaded.
			pool := cell.NewPool()
			for i := range idxCh {
				results[i] = RunOn(NewContextWithPool(opt, pool), exps[i])
			}
		}()
	}
	for i := range exps {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return results
}

// Serial executes experiments one by one with the same per-experiment
// isolation as Parallel (fresh Context each, one shared machine pool),
// so serial and parallel sweeps are directly comparable run for run.
func Serial(opt Options, exps []*Experiment) []RunResult {
	results := make([]RunResult, len(exps))
	pool := cell.NewPool()
	for i, e := range exps {
		results[i] = RunOn(NewContextWithPool(opt, pool), e)
	}
	return results
}

// RunOn executes one experiment on the given context, converting panics
// into errors so one bad experiment cannot take down a sweep. It is the
// shared containment primitive: the pool runners use it with isolated
// contexts, cmd/experiments uses it with its one shared context, and
// the dtad service calls it per job. A panic inside a simulation that
// runAll moved to a goroutine of its own never reaches this recover:
// runAll carries it back as that run's error.
func RunOn(ctx *Context, exp *Experiment) (res RunResult) {
	start := time.Now()
	base := *ctx.simCycles
	res.Experiment = exp
	defer func() {
		res.Elapsed = time.Since(start)
		res.SimCycles = *ctx.simCycles - base
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("experiment %s panicked: %v", exp.ID, r)
		}
	}()
	res.Outcome, res.Err = exp.Run(ctx)
	return res
}
