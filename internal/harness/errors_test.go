package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/program"
)

// errorSweep is a three-experiment sweep exercising both failure modes
// next to a healthy run: an error return, a panic, and a real cheap
// experiment (table2, a config echo).
func errorSweep(t *testing.T) []*Experiment {
	t.Helper()
	good, ok := ByID("table2")
	if !ok {
		t.Fatal("table2 missing")
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
		good,
	}
}

// checkErrorSweep asserts the shared contract of Serial and Parallel on
// failing experiments: errors land on their own slot, panics are
// converted to errors naming the experiment, healthy experiments keep
// their outcome, and every result records its experiment and a timing.
func checkErrorSweep(t *testing.T, runner string, results []RunResult) {
	t.Helper()
	if len(results) != 3 {
		t.Fatalf("%s: %d results for 3 experiments", runner, len(results))
	}
	errRes, panicRes, goodRes := results[0], results[1], results[2]

	if errRes.Err == nil || !strings.Contains(errRes.Err.Error(), "deliberate error") {
		t.Fatalf("%s: erroring experiment err = %v", runner, errRes.Err)
	}
	if errRes.Outcome != nil {
		t.Fatalf("%s: erroring experiment still produced an outcome", runner)
	}

	if panicRes.Err == nil {
		t.Fatalf("%s: panic was not converted to an error", runner)
	}
	msg := panicRes.Err.Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "deliberate panic") || !strings.Contains(msg, "panicking") {
		t.Fatalf("%s: panic error %q should name the experiment and the panic value", runner, msg)
	}

	if goodRes.Err != nil {
		t.Fatalf("%s: healthy experiment failed: %v", runner, goodRes.Err)
	}
	if goodRes.Outcome == nil || len(goodRes.Outcome.Tables) == 0 {
		t.Fatalf("%s: healthy experiment lost its outcome", runner)
	}

	for i, r := range results {
		if r.Experiment == nil {
			t.Fatalf("%s: result %d lost its experiment", runner, i)
		}
		if r.Elapsed < 0 {
			t.Fatalf("%s: result %d has negative elapsed %v", runner, i, r.Elapsed)
		}
	}
}

func TestSerialErrorPaths(t *testing.T) {
	checkErrorSweep(t, "Serial", Serial(quickOpts(), errorSweep(t)))
}

func TestParallelErrorPaths(t *testing.T) {
	checkErrorSweep(t, "Parallel", Parallel(quickOpts(), errorSweep(t), 2))
}

// TestRunAllErrorContainment: a failing spec in the middle of a declared
// list, and a panicking one, cost exactly their own slot. The panic
// happens on a worker goroutine RunOn cannot recover on, so runAll
// carries it back as the spec's error; the runs around it — the one
// after it on the very same machine included — complete and match a
// clean context's; and every machine is back in the pool, leaving its
// idle counts where they started. Under GOMAXPROCS=1 the same list runs
// inline on the caller.
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
				good, err := ctx.buildProgram("mmul", 2, true, true)
				if err != nil {
					t.Fatal(err)
				}
				bad := *good
				bad.Check = mode.check
				specs := []runSpec{
					benchSpec("mmul", 2, false),
					{spes: 2, v: defaultVariant(), prog: &bad}, // same machine as its neighbours
					benchSpec("mmul", 4, true),
					benchSpec("mmul", 2, true),
				}
				// Warm the pool so both configurations have an idle machine.
				if _, err := NewContextWithPool(quickOpts(), ctx.pool).runList([]runSpec{specs[0], specs[2]}); err != nil {
					t.Fatal(err)
				}
				cfg2, cfg4 := ctx.machineConfig(2, defaultVariant()), ctx.machineConfig(4, defaultVariant())
				idle2, idle4 := ctx.pool.Idle(cfg2), ctx.pool.Idle(cfg4)
				if idle2 != 1 || idle4 != 1 {
					t.Fatalf("warm pool holds %d and %d idle machines, want 1 and 1", idle2, idle4)
				}

				var runs []*cell.Result
				var errs []error
				res := RunOn(ctx, &Experiment{ID: mode.name, Run: func(ctx *Context) (*Outcome, error) {
					runs, errs = ctx.runAll(specs)
					return nil, errors.Join(errs...)
				}})
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
				if got2, got4 := ctx.pool.Idle(cfg2), ctx.pool.Idle(cfg4); got2 != idle2 || got4 != idle4 {
					t.Fatalf("%s/GOMAXPROCS=%d: pool idle counts %d/%d, started at %d/%d",
						mode.name, procs, got2, got4, idle2, idle4)
				}
			}()
		}
	}
}
