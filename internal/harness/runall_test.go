package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/program"
)

func quickOpts() Options {
	return Options{SPEs: 8, Latency: 150, Quick: true, Seed: 42}
}

// quickSpec is the spec a quickOpts context declares for one run.
func quickSpec(bench string, spes int, pf bool) runSpec {
	return (&Context{Opt: quickOpts()}).spec(bench, spes, pf)
}

// renderResults flattens a sweep's outcomes — rendered tables, notes and
// sorted metrics — into one byte string, so runs can be compared
// cycle-for-cycle and stat-for-stat.
func renderResults(t testing.TB, results []RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		fmt.Fprintf(&buf, "== %s\n", r.Experiment.ID)
		r.Outcome.Print(&buf)
		for _, k := range sortedKeys(r.Outcome.Metrics) {
			fmt.Fprintf(&buf, "%s=%v\n", k, r.Outcome.Metrics[k])
		}
	}
	return buf.Bytes()
}

// sweepFootprint is everything a sweep on one shared context leaves
// behind that must not depend on how runAll simulated it.
type sweepFootprint struct {
	rendered   []byte
	simCycles  []int64 // RunResult.SimCycles per experiment
	executed   int64   // RunsExecuted delta
	hits       int64   // RunCacheHits delta
	poolMisses int64   // cell.PoolMisses delta
}

// oneByOne is the reference loop of the identity test: every spec list
// runAll would take at once goes to it one spec at a time.
func oneByOne(c *Context, specs []runSpec) ([]*cell.Result, []error) {
	results := make([]*cell.Result, len(specs))
	errs := make([]error, len(specs))
	for i := range specs {
		res, err := c.runAll(specs[i : i+1])
		results[i], errs[i] = res[0], err[0]
	}
	return results, errs
}

// sharedSweep runs exps through RunOn on one NewContext — what
// `dta exp` and the benchmark's paper-sweep do — at the given
// GOMAXPROCS. serialLoop hands every spec list to runAll one spec at a
// time: the reference loop.
func sharedSweep(t *testing.T, exps []*Experiment, procs int, serialLoop bool) sweepFootprint {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if serialLoop {
		defer func(d func(*Context, []runSpec) ([]*cell.Result, []error)) { declare = d }(declare)
		declare = oneByOne
	}
	ctx := NewContext(quickOpts())
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
// bytes and bills the same runs and cache hits whether runAll takes each
// experiment's specs one at a time or all at once, spread over 1, 2 or
// 4 cores. Pool misses follow the machines runAll takes: on one core,
// one per configuration, as many as the serial loop builds; on more, up
// to GOMAXPROCS per configuration, a count that depends only on the
// spec lists and GOMAXPROCS, so two sweeps build the same number.
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
		if got.executed != want.executed || got.hits != want.hits {
			t.Fatalf("GOMAXPROCS=%d: executed/hits = %d/%d, serial loop %d/%d", procs,
				got.executed, got.hits, want.executed, want.hits)
		}
		wantMisses := want.poolMisses
		if procs > 1 {
			wantMisses = sharedSweep(t, exps, procs, false).poolMisses
		}
		if got.poolMisses != wantMisses || got.poolMisses < want.poolMisses {
			t.Fatalf("GOMAXPROCS=%d: %d pool misses, then %d; the serial loop %d", procs,
				got.poolMisses, wantMisses, want.poolMisses)
		}
	}
}

// TestSimCyclesRunnerIndependent: the represented-cycles metric counts
// cache hits at face value, so each experiment reports the same
// SimCycles on the sweep's shared context, where later experiments hit
// the runs of earlier ones, as on a fresh context of its own.
// ablation-memlat follows the sweep: its runs at other latencies are
// declared through Subs, and it hits fig7's and lat1's.
func TestSimCyclesRunnerIndependent(t *testing.T) {
	memlat, _ := ByID("ablation-memlat")
	exps := append(sweepExperiments(t), memlat)
	shared := NewContext(quickOpts())
	var hits, freshHits int64
	for _, e := range exps {
		h := RunCacheHits.Load()
		got := RunOn(shared, e)
		hits += RunCacheHits.Load() - h
		h = RunCacheHits.Load()
		want := RunOn(NewContext(quickOpts()), e)
		freshHits += RunCacheHits.Load() - h
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%s: shared err %v, fresh err %v", e.ID, got.Err, want.Err)
		}
		if want.SimCycles <= 0 || got.SimCycles != want.SimCycles {
			t.Fatalf("%s: SimCycles shared=%d fresh=%d", e.ID, got.SimCycles, want.SimCycles)
		}
	}
	if hits <= freshHits {
		t.Fatalf("the shared sweep hit its run cache %d times, fresh contexts %d: nothing was shared", hits, freshHits)
	}
}

// TestRunAllDuplicateKeys: a key declared twice in one list is simulated
// once and billed as one miss and one hit — what two run calls in a row
// would have billed — whether the context spreads its runs or runs
// them on the caller.
func TestRunAllDuplicateKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs := []runSpec{
		quickSpec("mmul", 2, true),
		quickSpec("mmul", 4, true),
		quickSpec("mmul", 2, true),
	}
	for _, spread := range []bool{false, true} {
		ctx := NewContext(quickOpts())
		ctx.spread = spread
		executed, hits := RunsExecuted.Load(), RunCacheHits.Load()
		runs, err := ctx.runList(specs)
		if err != nil {
			t.Fatal(err)
		}
		if runs[0] != runs[2] {
			t.Fatalf("spread=%v: duplicate key returned a second result", spread)
		}
		if e, h := RunsExecuted.Load()-executed, RunCacheHits.Load()-hits; e != 2 || h != 1 {
			t.Fatalf("spread=%v: billed %d misses and %d hits, want 2 and 1", spread, e, h)
		}
		if want := int64(2*runs[0].Cycles + runs[1].Cycles); *ctx.simCycles != want {
			t.Fatalf("spread=%v: simCycles = %d, want %d", spread, *ctx.simCycles, want)
		}
	}
}

// tracedRuns is what a recording and profiling context kept of a spec
// list, in a form two runs can compare.
type tracedRuns struct {
	labels   []string
	spuSpans []int
	nocSpans []int
	profs    []obs.Run
}

// traceSpecs runs specs on a recording and profiling NewContext at the
// given GOMAXPROCS.
func traceSpecs(t *testing.T, specs []runSpec, procs int) tracedRuns {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := NewContext(quickOpts())
	ctx.Observe(true, true)
	if _, err := ctx.runList(specs); err != nil {
		t.Fatal(err)
	}
	tr := tracedRuns{profs: ctx.Observed()}
	for _, r := range tr.profs {
		tr.labels = append(tr.labels, r.Label)
		tr.spuSpans = append(tr.spuSpans, len(r.Rec.SPUSpans()))
		tr.nocSpans = append(tr.nocSpans, len(r.Rec.NoCSpans()))
	}
	return tr
}

// TestRunAllRecordingSpreads: a recording and profiling context runs
// each traced spec on a machine of its own, spread over the cores like
// any other run, and keeps its recording and profile in spec order —
// so one core and four give the same runs, and a duplicate key adds
// nothing.
func TestRunAllRecordingSpreads(t *testing.T) {
	specs := []runSpec{
		quickSpec("mmul", 2, true),
		quickSpec("mmul", 4, false),
		quickSpec("mmul", 2, true),
		quickSpec("zoom", 1, false),
		quickSpec("mmul", 4, true),
	}
	want := traceSpecs(t, specs, 1)
	wantLabels := []string{
		"mmul spes=2 pf=true lat=150",
		"mmul spes=4 pf=false lat=150",
		"zoom spes=1 pf=false lat=150",
		"mmul spes=4 pf=true lat=150",
	}
	if !reflect.DeepEqual(want.labels, wantLabels) {
		t.Fatalf("recorded %q, want the distinct specs in order %q", want.labels, wantLabels)
	}
	for i, n := range want.spuSpans {
		if n == 0 || want.nocSpans[i] == 0 {
			t.Fatalf("%s: empty recording", want.labels[i])
		}
	}
	got := traceSpecs(t, specs, 4)
	if !reflect.DeepEqual(got.labels, want.labels) || !reflect.DeepEqual(got.spuSpans, want.spuSpans) ||
		!reflect.DeepEqual(got.nocSpans, want.nocSpans) {
		t.Fatalf("GOMAXPROCS=4 recorded %q (SPU spans %v, NoC spans %v), one core %q (%v, %v)",
			got.labels, got.spuSpans, got.nocSpans, want.labels, want.spuSpans, want.nocSpans)
	}
	if len(got.profs) != len(want.profs) {
		t.Fatalf("GOMAXPROCS=4 profiled %d runs, one core %d", len(got.profs), len(want.profs))
	}
	for i, p := range got.profs {
		if w := want.profs[i]; p.Label != w.Label || p.Label != wantLabels[i] || !p.Prof.Equal(w.Prof) {
			t.Fatalf("profile %d: %q at GOMAXPROCS=4, %q on one core, equal=%v", i, p.Label, w.Label, p.Prof.Equal(w.Prof))
		}
	}
}

// goroutineID reads the calling goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// checkGoroutines runs mmul on ctx once per SPE count in spes, each
// run a program of its own under a build key of its own, at GOMAXPROCS
// procs and returns the
// caller's goroutine and the goroutines the functional checks ran on.
// With hold, a check on the caller waits up to ten seconds for one
// elsewhere, so a context that spreads its runs shows it however the
// scheduler orders them.
func checkGoroutines(t *testing.T, ctx *Context, hold bool, procs int, spes ...int) (caller string, ran []string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	caller = goroutineID()
	var mu sync.Mutex
	elsewhere := make(chan struct{})
	var once sync.Once
	var specs []runSpec
	for i, n := range spes {
		spec := ctx.spec("mmul", n, true)
		prog, err := ctx.buildProgram(spec.build)
		if err != nil {
			t.Fatal(err)
		}
		own := *prog
		own.Check = func(m program.MemReader, tokens []int64) error {
			id := goroutineID()
			mu.Lock()
			ran = append(ran, id)
			mu.Unlock()
			if id != caller {
				once.Do(func() { close(elsewhere) })
			} else if hold {
				select {
				case <-elsewhere:
				case <-time.After(10 * time.Second):
				}
			}
			return prog.Check(m, tokens)
		}
		if err := program.Seal(&own); err != nil {
			t.Fatal(err)
		}
		spec.build.bench = fmt.Sprintf("mmul-own%d", i)
		ctx.progs[spec.build] = &own
		specs = append(specs, spec)
	}
	if _, err := ctx.runList(specs); err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(specs) {
		t.Fatalf("latency %d: %d functional checks ran, want %d", ctx.Opt.Latency, len(ran), len(specs))
	}
	return caller, ran
}

// TestRunAllOwnedContextsSpread: a context that owns its cores
// (NewContext), its Sub and a recording and profiling NewContext run
// four machine configurations on more goroutines than the caller's.
func TestRunAllOwnedContextsSpread(t *testing.T) {
	job := quickOpts()
	job.Latency = 1
	traced := NewContext(quickOpts())
	traced.Observe(true, true)
	for _, ctx := range []*Context{NewContext(quickOpts()), NewContext(quickOpts()).Sub(job), traced} {
		caller, ran := checkGoroutines(t, ctx, true, 4, 1, 2, 4, 8)
		if !slices.ContainsFunc(ran, func(id string) bool { return id != caller }) {
			t.Fatalf("latency %d (recording %v): every simulation ran on the caller, goroutine %s",
				ctx.Opt.Latency, ctx == traced, caller)
		}
	}
}

// TestRunAllOuterSchedulerContextsStaySerial: a dtad worker's base
// context (NewContextWithPool) and the per-job Sub contexts it hands
// out start no goroutine — the worker's siblings already occupy the
// cores — even with four configurations and four cores on offer: every
// simulation's functional check runs on the caller's goroutine.
func TestRunAllOuterSchedulerContextsStaySerial(t *testing.T) {
	base := NewContextWithPool(quickOpts(), cell.NewPool())
	job := quickOpts()
	job.Latency = 1
	for _, ctx := range []*Context{base, base.Sub(job)} {
		caller, ran := checkGoroutines(t, ctx, false, 4, 1, 2, 4, 8)
		for _, id := range ran {
			if id != caller {
				t.Fatalf("latency %d: a simulation ran on goroutine %s, the caller is %s", ctx.Opt.Latency, id, caller)
			}
		}
	}
}

// TestRunAllSpreadsOneConfiguration: the runs of one machine
// configuration spread over the cores too, each goroutine on a machine
// of its own — min(GOMAXPROCS, runs) of them, built on an empty pool —
// and every machine goes back to the pool.
func TestRunAllSpreadsOneConfiguration(t *testing.T) {
	ctx := NewContext(quickOpts())
	misses := cell.PoolMisses.Load()
	caller, ran := checkGoroutines(t, ctx, true, 2, 2, 2, 2)
	if built := cell.PoolMisses.Load() - misses; built != 2 {
		t.Fatalf("three runs of one configuration at GOMAXPROCS=2 built %d machines, want 2", built)
	}
	if idle := ctx.pool.Idle(ctx.spec("mmul", 2, true).cfg); idle != 2 {
		t.Fatalf("%d machines back in the pool, want 2", idle)
	}
	if !slices.ContainsFunc(ran, func(id string) bool { return id != caller }) {
		t.Fatalf("every run of the configuration ran on the caller, goroutine %s", caller)
	}
	// A context under an outer scheduler drives one machine through them.
	serial := NewContextWithPool(quickOpts(), cell.NewPool())
	misses = cell.PoolMisses.Load()
	checkGoroutines(t, serial, false, 2, 2, 2, 2)
	if built := cell.PoolMisses.Load() - misses; built != 1 {
		t.Fatalf("a serial context built %d machines for three runs of one configuration, want 1", built)
	}
}
