package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/program"
)

// errorSweep is a four-experiment sweep exercising both failure modes
// next to healthy runs: an error return, a panic, and two real cheap
// experiments (table2, a config echo, and mmul-pf, one simulation),
// which run on the context the failures ran on before them.
func errorSweep(t *testing.T) []*Experiment {
	t.Helper()
	var good []*Experiment
	for _, id := range []string{"table2", "mmul-pf"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		good = append(good, e)
	}
	return []*Experiment{
		{
			ID:    "erroring",
			Title: "returns an error",
			Run: func(*Context) (*Outcome, error) {
				return nil, errors.New("deliberate error")
			},
		},
		{
			ID:    "panicking",
			Title: "panics mid-run",
			Run: func(*Context) (*Outcome, error) {
				panic("deliberate panic")
			},
		},
		good[0],
		good[1],
	}
}

// checkErrorSweep runs the error sweep at GOMAXPROCS=procs through
// RunOn on one shared NewContext, as `dta exp` does, and asserts
// the contract on failing experiments: errors land on their own slot,
// panics are converted to errors naming the experiment, healthy
// experiments keep their outcome, and every result records its
// experiment and a timing.
func checkErrorSweep(t *testing.T, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := NewContext(quickOpts())
	var results []RunResult
	for _, e := range errorSweep(t) {
		results = append(results, RunOn(ctx, e))
	}
	errRes, panicRes := results[0], results[1]

	if errRes.Err == nil || !strings.Contains(errRes.Err.Error(), "deliberate error") {
		t.Fatalf("erroring experiment err = %v", errRes.Err)
	}
	if errRes.Outcome != nil {
		t.Fatal("erroring experiment still produced an outcome")
	}

	if panicRes.Err == nil {
		t.Fatal("panic was not converted to an error")
	}
	msg := panicRes.Err.Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "deliberate panic") || !strings.Contains(msg, "panicking") {
		t.Fatalf("panic error %q should name the experiment and the panic value", msg)
	}

	for _, goodRes := range results[2:] {
		if goodRes.Err != nil {
			t.Fatalf("healthy experiment %s failed: %v", goodRes.Experiment.ID, goodRes.Err)
		}
		if goodRes.Outcome == nil || len(goodRes.Outcome.Tables) == 0 {
			t.Fatalf("healthy experiment %s lost its outcome", goodRes.Experiment.ID)
		}
	}
	if results[3].SimCycles == 0 {
		t.Fatal("mmul-pf simulated nothing")
	}

	for i, r := range results {
		if r.Experiment == nil {
			t.Fatalf("result %d lost its experiment", i)
		}
		if r.Elapsed < 0 {
			t.Fatalf("result %d has negative elapsed %v", i, r.Elapsed)
		}
	}
}

// TestSerialErrorPaths: the contract where a context runs every
// simulation inline on the caller.
func TestSerialErrorPaths(t *testing.T) {
	checkErrorSweep(t, 1)
}

// TestParallelErrorPaths: the same contract where runAll may spread a
// healthy experiment's simulations across cores.
func TestParallelErrorPaths(t *testing.T) {
	checkErrorSweep(t, 2)
}

// TestRunAllErrorContainment: a failing spec in the middle of a declared
// list, and a panicking one, cost exactly their own slot. The panic
// happens on a worker goroutine RunOn cannot recover on, so runAll
// carries it back as the spec's error; the runs around it — those of
// the very same configuration included — complete and match a clean
// context's; and every machine is back in the pool: the idle counts
// after are those before plus the machines the call built. Under
// GOMAXPROCS=1 the same list runs inline on the caller, on the two
// warm machines.
func TestRunAllErrorContainment(t *testing.T) {
	for _, mode := range []struct {
		name  string
		check func(program.MemReader, []int64) error
		want  string
	}{
		{"failing", func(program.MemReader, []int64) error { return errors.New("deliberate mismatch") }, "deliberate mismatch"},
		{"panicking", func(program.MemReader, []int64) error { panic("deliberate panic") }, "deliberate panic"},
	} {
		for _, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ctx := NewContext(quickOpts())
				badSpec := ctx.spec("mmul", 2, true) // same machine as its neighbours
				good, err := ctx.buildProgram(badSpec.build)
				if err != nil {
					t.Fatal(err)
				}
				bad := *good
				bad.Check = mode.check
				if err := program.Seal(&bad); err != nil { // a copy is a program of its own
					t.Fatal(err)
				}
				badSpec.build.bench = "mmul-bad" // under a build key of its own
				ctx.progs[badSpec.build] = &bad
				specs := []runSpec{
					ctx.spec("mmul", 2, false),
					badSpec,
					ctx.spec("mmul", 4, true),
					ctx.spec("mmul", 2, true),
				}
				// Warm the pool so both configurations have an idle machine.
				if _, err := NewContextWithPool(quickOpts(), ctx.pool).runList([]runSpec{specs[0], specs[2]}); err != nil {
					t.Fatal(err)
				}
				cfg2, cfg4 := specs[0].cfg, specs[2].cfg
				idle2, idle4 := ctx.pool.Idle(cfg2), ctx.pool.Idle(cfg4)
				if idle2 != 1 || idle4 != 1 {
					t.Fatalf("warm pool holds %d and %d idle machines, want 1 and 1", idle2, idle4)
				}

				var runs []*cell.Result
				var errs []error
				misses := cell.PoolMisses.Load()
				res := RunOn(ctx, &Experiment{ID: mode.name, Run: func(ctx *Context) (*Outcome, error) {
					runs, errs = ctx.runAll(specs)
					return nil, errors.Join(errs...)
				}})
				built := int(cell.PoolMisses.Load() - misses)
				if res.Err == nil || !strings.Contains(res.Err.Error(), mode.want) {
					t.Fatalf("%s/GOMAXPROCS=%d: experiment error = %v", mode.name, procs, res.Err)
				}
				if errs[1] == nil || !strings.Contains(errs[1].Error(), mode.want) {
					t.Fatalf("%s/GOMAXPROCS=%d: bad spec's error = %v", mode.name, procs, errs[1])
				}
				clean := NewContext(quickOpts())
				for _, i := range []int{0, 2, 3} {
					if errs[i] != nil {
						t.Fatalf("%s/GOMAXPROCS=%d: healthy spec %d failed: %v", mode.name, procs, i, errs[i])
					}
					want, err := clean.runOne(specs[i])
					if err != nil {
						t.Fatal(err)
					}
					if runs[i].Cycles != want.Cycles || runs[i].Agg != want.Agg {
						t.Fatalf("%s/GOMAXPROCS=%d: spec %d diverges from a clean context (%d vs %d cycles)",
							mode.name, procs, i, runs[i].Cycles, want.Cycles)
					}
				}
				if got2, got4 := ctx.pool.Idle(cfg2), ctx.pool.Idle(cfg4); got2+got4 != idle2+idle4+built || got2 < idle2 || got4 < idle4 {
					t.Fatalf("%s/GOMAXPROCS=%d: pool idle counts %d/%d, started at %d/%d and %d machines were built",
						mode.name, procs, got2, got4, idle2, idle4, built)
				}
			}()
		}
	}
}
