// Package harness defines one runnable experiment per table and figure
// of the paper's evaluation (§4), plus the ablations listed in
// EXPERIMENTS.md. Each experiment prints the same rows/series the paper
// reports and returns machine-readable metrics so the benchmark suite
// and EXPERIMENTS.md generation can assert on shapes.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Process-wide run-cache counters aggregated across every Context (the
// contexts are per-worker, so per-instance counters cannot be scraped).
// Exposed as dtad_harness_* by the service's metrics registry.
var (
	// RunsExecuted counts simulations actually computed (cache misses).
	RunsExecuted atomic.Int64
	// RunCacheHits counts memoised results served without simulating.
	RunCacheHits atomic.Int64
)

// CauseCycles accumulates simulated SPU cycles per stall cause across
// every Context, with the same accounting rule as Context.SimCycles:
// every cache request bills the result's totals, hit or miss, so the
// numbers track the workloads served, not which runner computed them.
// Exposed as dtad_sim_stall_cycles_total{cause=...} by the service.
var CauseCycles [stats.NumCauses]atomic.Int64

// Options configures an experiment run.
type Options struct {
	SPEs    int  // default 8 (the paper's platform)
	Latency int  // memory latency; default 150 (paper Table 2)
	Quick   bool // shrink problem sizes for fast test runs
	Seed    uint64
}

// WithDefaults returns o with unset fields replaced by the paper's
// operating point (8 SPEs, 150-cycle memory, seed 42). Two Options
// values that normalise to the same WithDefaults() result describe the
// same run — internal/service relies on this to compute canonical run
// keys, so any new Options field must get its default applied here.
func (o Options) WithDefaults() Options {
	if o.SPEs == 0 {
		o.SPEs = 8
	}
	if o.Latency == 0 {
		o.Latency = 150
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Outcome is an experiment's result: rendered tables plus named metrics.
type Outcome struct {
	Tables  []*stats.Table
	Notes   []string
	Metrics map[string]float64
}

// Print renders the outcome.
func (o *Outcome) Print(w io.Writer) {
	for _, t := range o.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Experiment reproduces one paper table/figure.
type Experiment struct {
	ID    string // e.g. "fig5a"
	Title string
	Paper string // the shape the paper reports, for side-by-side reading
	Run   func(ctx *Context) (*Outcome, error)
}

var experiments []*Experiment

func register(e *Experiment) { experiments = append(experiments, e) }

// presentation order: the paper's tables and figures first, then the
// ablations (init order across files is alphabetical, so registration
// order alone is not the paper's order).
var order = []string{
	"table2", "table3", "table4",
	"fig5a", "fig5b", "table5",
	"bitcnt-orig", "bitcnt-pf", "mmul-orig", "mmul-pf", "zoom-orig", "zoom-pf",
	"fig6", "fig7", "fig8", "fig9", "lat1",
	"ablation-vfp", "ablation-dmalat", "ablation-buses",
	"ablation-memlat", "ablation-nodes", "ablation-granularity",
	"ablation-writeback", "phase-memlat",
}

// All returns the registered experiments in paper presentation order.
func All() []*Experiment {
	rank := make(map[string]int, len(order))
	for i, id := range order {
		rank[id] = i
	}
	out := append([]*Experiment(nil), experiments...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		if iok && jok {
			return ri < rj
		}
		return iok // ranked ones first, unranked keep registration order
	})
	return out
}

// ByID finds one experiment.
func ByID(id string) (*Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// IDs lists experiment ids in order.
func IDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	return ids
}

// Context carries options and a run cache shared across experiments (the
// same benchmark run feeds several figures, as in the paper).
type Context struct {
	Opt Options
	// SingleStep disables the SPU's burst-execution fast path for every
	// machine this context builds, by setting spu.Config.BurstMax to -1
	// (see that field's doc comment for the canonical value semantics)
	// — the slow path the burst differential tests compare against.
	// Results are identical either way; only wall-clock time differs.
	SingleStep bool
	// spread marks a context that owns its cores, so runAll spreads its
	// runs over all of them, on up to GOMAXPROCS machines of each
	// configuration; set by NewContext alone and inherited by Sub. Any
	// other context runs them on the caller's goroutine, on one machine
	// per configuration.
	spread bool
	cache  *lru.Cache[runSpec, *cell.Result] // the run cache; see runCacheCap
	progs  map[build]*program.Program
	pool   *cell.Pool
	// ckpts shares warm-up-prefix snapshots across phase runs (see
	// Context.phaseSpec). Shared by Sub contexts exactly like the run cache.
	ckpts *CheckpointCache
	// simCycles accumulates the simulated cycles this context's
	// experiments represent — every cache request counts the result's
	// cycle total, hit or miss, so the metric depends only on the
	// workload, not on whether the run cache served it. A pointer so
	// Sub-derived contexts bill the same counter.
	simCycles *int64
	// ob, once Observe asked for a timeline or a guest profile (nil
	// before), collects one observed run per simulation this context
	// (and its Sub contexts) actually computes. Shared by pointer so
	// derived contexts feed the same list.
	ob *observation
}

// observation is a context's observing state: whether each simulation
// records a timeline and the runs observed so far.
type observation struct {
	timeline bool
	runs     []obs.Run
}

// NewContext prepares a context with its own machine pool — the one
// context of a sweep (`dta exp`, the benchmark's paper-sweep).
// It owns its goroutine budget too: experiments declare their runs
// (runAll) and the mutually independent ones are simulated on every
// core, each on a machine of its own.
func NewContext(opt Options) *Context {
	c := NewContextWithPool(opt, cell.NewPool())
	c.spread = true
	return c
}

// NewContextWithPool prepares a context that recycles machines through
// pool (shared across the contexts of one worker to amortise machine
// construction over a sweep). The pool must not be shared across
// goroutines. The context plans its runs exactly like NewContext's and
// simulates them on the caller's goroutine only: it is meant to sit
// under a scheduler that already occupies the cores, or to keep a debug
// run on the goroutine that asked for it.
func NewContextWithPool(opt Options, pool *cell.Pool) *Context {
	return &Context{
		Opt:       opt.WithDefaults(),
		cache:     lru.New[runSpec, *cell.Result](runCacheCap, nil, nil),
		progs:     make(map[build]*program.Program),
		pool:      pool,
		ckpts:     NewCheckpointCache(),
		simCycles: new(int64),
	}
}

// SetCheckpointCache replaces this context's checkpoint cache — used
// by long-lived workers (the dtad service) to share one cache across
// the per-job contexts they build. Must be called
// before the context runs anything; nil disables checkpoint sharing.
func (c *Context) SetCheckpointCache(cc *CheckpointCache) { c.ckpts = cc }

// Observe makes this context keep every simulation it computes as an
// observed run: its guest cycle profile (per-PC stall attribution,
// which every machine keeps) and, with timeline set, a full component
// timeline (SPU/DMA/NoC/thread spans; cell.Config.Record). Each observed
// run gets a machine built for it and never pooled, so observe only
// dedicated debugging runs — and call this before deriving Sub
// contexts, which share the observed runs by pointer. Observe(false,
// false) turns observing off.
func (c *Context) Observe(timeline, profile bool) {
	c.ob = nil
	if timeline || profile {
		c.ob = &observation{timeline: timeline}
	}
}

// Observed returns the runs observed so far, one per simulation
// computed while observing (cache hits reuse the already-observed run
// and add nothing), in the order the runs were declared. Export them
// with obs.WriteTrace and obs.WriteProfile.
func (c *Context) Observed() []obs.Run {
	if c.ob == nil {
		return nil
	}
	return c.ob.runs
}

// Sub derives a context at a different operating point that shares this
// context's machinery: machine pool, run, program and checkpoint caches
// (a run key is the whole machine configuration and program build, so
// any operating point may share them), core ownership and the
// simulated-cycle counter. Experiments that run under modified options
// (lat1's latency-1 study, ablation-memlat's latency sweep) use it so
// their simulations are cached, counted and observed like everyone
// else's, and a dtad worker runs each job on a Sub of its base context.
func (c *Context) Sub(opt Options) *Context {
	return &Context{
		Opt:        opt.WithDefaults(),
		SingleStep: c.SingleStep,
		spread:     c.spread,
		cache:      c.cache,
		progs:      c.progs,
		pool:       c.pool,
		ckpts:      c.ckpts,
		simCycles:  c.simCycles,
		ob:         c.ob,
	}
}

// runCacheCap bounds a run cache, which keeps its most recently used
// results. A sweep never reaches it — the whole registry executes 61
// runs — but a dtad worker's base context lives as long as the worker
// while clients choose the latency that goes into every run key.
const runCacheCap = 4096

// build is everything a benchmark program depends on, and so the
// program cache's key.
type build struct {
	bench  string
	params workloads.Params
	pf     bool             // apply the prefetch transformation
	opt    prefetch.Options // the transformation's options, with pf
}

// program builds b's program.
func (b build) program() (*program.Program, error) {
	w, _ := workloads.Get(b.bench)
	prog, err := w.Build(b.params)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", b.bench, err)
	}
	if b.pf {
		if prog, err = prefetch.TransformWithOptions(prog, b.opt); err != nil {
			return nil, fmt.Errorf("transform %s: %w", b.bench, err)
		}
	}
	return prog, nil
}

// benchParams returns the paper's problem sizes (or quick ones).
func (o Options) benchParams(bench string, spes int) workloads.Params {
	w, ok := workloads.Get(bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	n := w.DefaultN
	if o.Quick {
		switch bench {
		case "bitcnt":
			n = 400
		default:
			n = 16
		}
	}
	p := workloads.Params{N: n, Seed: o.Seed}
	switch bench {
	case "bitcnt":
		// chunking is fixed by the workload default
	default:
		p.Workers = workloads.AutoWorkers(spes, 32)
	}
	return p
}

// buildProgram returns b's program from the program cache, building it
// on first use.
func (c *Context) buildProgram(b build) (*program.Program, error) {
	if prog, ok := c.progs[b]; ok {
		return prog, nil
	}
	prog, err := b.program()
	if err != nil {
		return nil, err
	}
	c.progs[b] = prog
	return prog, nil
}

// BenchProgram builds bench's program the way every experiment at opt
// builds it for opt.SPEs SPEs: the paper's problem size, or the quick
// one with opt.Quick, AutoWorkers guest workers and opt.Seed as the
// input seed, prefetch-transformed when pf is set. n > 0 overrides the
// problem size.
func BenchProgram(opt Options, bench string, n int, pf bool) (*program.Program, error) {
	if _, ok := workloads.Get(bench); !ok {
		return nil, fmt.Errorf("unknown benchmark %q (have %v)", bench, workloads.Names())
	}
	opt = opt.WithDefaults()
	b := build{bench: bench, params: opt.benchParams(bench, opt.SPEs), pf: pf}
	if n > 0 {
		b.params.N = n
	}
	return b.program()
}

// MachineConfig is the machine every experiment at opt runs its
// benchmarks on: the paper's platform with opt.SPEs SPEs and an
// opt.Latency-cycle memory, wired for the §4.3 always-hit study at
// latency 1.
func MachineConfig(opt Options) cell.Config {
	opt = opt.WithDefaults()
	cfg := cell.DefaultConfig()
	cfg.SPEs = opt.SPEs
	cfg.Mem.Latency = opt.Latency
	if opt.Latency == 1 {
		// The paper's "all memory latencies set to one cycle" study
		// (§4.3) models the best case "when cache accesses would always
		// hit": READ/WRITE become 1-cycle ideal-cache accesses and the
		// local store is idealised to match.
		cfg.LS.Latency = 1
		cfg.SPU.PerfectCacheLat = 1
	}
	return cfg
}

// bill accounts one served cache request — the single accounting point
// of runAll. A miss lands the freshly simulated result in
// the run cache; hit or miss, the request bills the result's cycle
// total and per-cause cycles, so the counters track the workloads
// served, not which runner computed them.
func (c *Context) bill(key runSpec, res *cell.Result, hit bool) {
	if hit {
		RunCacheHits.Add(1)
	} else {
		RunsExecuted.Add(1)
		c.cache.Put(key, res)
	}
	*c.simCycles += int64(res.Cycles)
	for cs := stats.Cause(0); cs < stats.NumCauses; cs++ {
		if n := res.Agg.Causes[cs]; n != 0 {
			CauseCycles[cs].Add(n)
		}
	}
}

// benchmarks is the paper's evaluation set, in presentation order.
var benchmarks = []string{"bitcnt", "mmul", "zoom"}

// benchLabel renders "bitcnt(10000)"-style labels.
func (c *Context) benchLabel(bench string) string {
	return fmt.Sprintf("%s(%d)", bench, c.Opt.benchParams(bench, c.Opt.SPEs).N)
}

// sortedKeys is a helper for deterministic metric listings.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
