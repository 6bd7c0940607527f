package harness

import (
	"fmt"
	"time"
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
	// a property of the workload, not of the cache's state. Benchmarks
	// divide it by wall time for a sim-cycles/sec throughput measure.
	SimCycles int64
}

// RunOn executes one experiment on the given context, converting panics
// into errors so one bad experiment cannot take down a sweep. It is the
// one way to run an experiment: a sweep calls it per experiment on one
// NewContext (`dta exp`, the benchmark's paper-sweep), and the
// dtad service calls it per job. A panic inside a simulation that
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
