package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cell"
)

// sweepFootprint is everything a sweep on one shared context leaves
// behind that must not depend on how runAll simulated it.
type sweepFootprint struct {
	rendered   []byte
	simCycles  []int64 // RunResult.SimCycles per experiment
	executed   int64   // RunsExecuted delta
	hits       int64   // RunCacheHits delta
	poolMisses int64   // cell.PoolMisses delta
}

// sharedSweep runs exps through RunOn on one NewContext — what
// cmd/experiments and the benchmark's paper-sweep do — at the given
// GOMAXPROCS. serialLoop turns runAll's spreading off, so every spec
// list runs one by one through memoRun: the reference loop.
func sharedSweep(t *testing.T, exps []*Experiment, procs int, serialLoop bool) sweepFootprint {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := NewContext(quickOpts())
	ctx.spread = !serialLoop
	executed, hits, misses := RunsExecuted.Load(), RunCacheHits.Load(), cell.PoolMisses.Load()
	results := make([]RunResult, len(exps))
	for i, e := range exps {
		results[i] = RunOn(ctx, e)
	}
	fp := sweepFootprint{
		rendered:   renderResults(t, results),
		executed:   RunsExecuted.Load() - executed,
		hits:       RunCacheHits.Load() - hits,
		poolMisses: cell.PoolMisses.Load() - misses,
	}
	for _, r := range results {
		fp.simCycles = append(fp.simCycles, r.SimCycles)
	}
	return fp
}

// TestRunAllMatchesSerialLoop is the identity contract of the declared-
// runs path: the whole registry on one shared context renders the same
// bytes and moves every counter by the same amount whether runAll takes
// its specs one by one or chains them over 1, 2 or 4 cores.
func TestRunAllMatchesSerialLoop(t *testing.T) {
	exps := All()
	want := sharedSweep(t, exps, 1, true)
	if want.executed == 0 || want.hits == 0 || want.poolMisses == 0 {
		t.Fatalf("reference sweep moved no counters: %+v", want)
	}
	for _, procs := range []int{1, 2, 4} {
		got := sharedSweep(t, exps, procs, false)
		if !bytes.Equal(got.rendered, want.rendered) {
			t.Fatalf("GOMAXPROCS=%d: outcomes diverge from the serial loop:\n--- serial ---\n%s\n--- runAll ---\n%s",
				procs, want.rendered, got.rendered)
		}
		if !reflect.DeepEqual(got.simCycles, want.simCycles) {
			t.Fatalf("GOMAXPROCS=%d: SimCycles %v, serial loop %v", procs, got.simCycles, want.simCycles)
		}
		if got.executed != want.executed || got.hits != want.hits || got.poolMisses != want.poolMisses {
			t.Fatalf("GOMAXPROCS=%d: executed/hits/pool misses = %d/%d/%d, serial loop %d/%d/%d", procs,
				got.executed, got.hits, got.poolMisses, want.executed, want.hits, want.poolMisses)
		}
	}
}

// TestRunAllDuplicateKeys: a key declared twice in one list is simulated
// once and billed as one miss and one hit — what two run calls in a row
// would have billed.
func TestRunAllDuplicateKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs := []runSpec{
		benchSpec("mmul", 2, true),
		benchSpec("mmul", 4, true),
		benchSpec("mmul", 2, true),
	}
	for _, serialLoop := range []bool{true, false} {
		ctx := NewContext(quickOpts())
		ctx.spread = !serialLoop
		executed, hits := RunsExecuted.Load(), RunCacheHits.Load()
		runs, err := ctx.runList(specs)
		if err != nil {
			t.Fatal(err)
		}
		if runs[0] != runs[2] {
			t.Fatalf("serialLoop=%v: duplicate key returned a second result", serialLoop)
		}
		if e, h := RunsExecuted.Load()-executed, RunCacheHits.Load()-hits; e != 2 || h != 1 {
			t.Fatalf("serialLoop=%v: billed %d misses and %d hits, want 2 and 1", serialLoop, e, h)
		}
		if want := int64(2*runs[0].Cycles + runs[1].Cycles); *ctx.simCycles != want {
			t.Fatalf("serialLoop=%v: simCycles = %d, want %d", serialLoop, *ctx.simCycles, want)
		}
	}
}

// TestRunAllRecordingStaysSerial: a recording context takes its specs
// one by one, so each simulation is recorded once, in spec order, and a
// duplicate key adds nothing.
func TestRunAllRecordingStaysSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := NewContext(quickOpts())
	ctx.EnableRecording(0)
	if ctx.spreads() {
		t.Fatal("recording context still spreads its runs")
	}
	specs := []runSpec{
		benchSpec("mmul", 2, true),
		benchSpec("mmul", 4, false),
		benchSpec("mmul", 2, true),
	}
	if _, err := ctx.runList(specs); err != nil {
		t.Fatal(err)
	}
	rec := ctx.Recorded()
	if len(rec) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(rec))
	}
	if rec[0].Label != "mmul spes=2 pf=true lat=150" || rec[1].Label != "mmul spes=4 pf=false lat=150" {
		t.Fatalf("recorded labels %q, %q: not the specs in order", rec[0].Label, rec[1].Label)
	}
	for _, r := range rec {
		if r.Rec == nil || len(r.Rec.SPUSpans()) == 0 {
			t.Fatalf("%s: empty recording", r.Label)
		}
	}
}

// TestRunAllOuterSchedulerContextsStaySerial: contexts built for a
// worker of Serial/Parallel or for a fiber never spread.
func TestRunAllOuterSchedulerContextsStaySerial(t *testing.T) {
	if !NewContext(quickOpts()).spreads() || !NewContext(quickOpts()).Sub(quickOpts()).spreads() {
		t.Fatal("a NewContext (or its Sub) does not spread")
	}
	if NewContextWithPool(quickOpts(), cell.NewPool()).spreads() {
		t.Fatal("a pool-sharing worker context spreads")
	}
	if NewBatchState(quickOpts(), 0, 2).Context(nil).spreads() {
		t.Fatal("a BatchState context spreads")
	}
}
