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
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
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
	// InflightDedupHits counts waits resolved by a sibling fiber's
	// in-flight computation of the same run key.
	InflightDedupHits atomic.Int64
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
	// NoCheckpoint disables checkpoint sharing on the fork path: every
	// phase run simulates its warm-up prefix from cycle 0. Results are
	// identical either way (the byte-identity the snapshot tests
	// enforce); the cold baseline exists for benchmarking the sharing.
	NoCheckpoint bool
	// spread marks a context that schedules its own simulations: nothing
	// above it spreads work over the cores, so runAll may (see runAll).
	// Set by NewContext alone and inherited by Sub. Contexts handed to an
	// outer scheduler — NewContextWithPool for Serial/Parallel workers,
	// BatchState.ContextFor for fibers and dtad workers — run their specs
	// one by one on the caller's goroutine.
	spread bool
	cache  map[runKey]*cell.Result
	progs  map[progKey]*program.Program
	pool   *cell.Pool
	// ckpts shares warm-up-prefix snapshots across fork calls (see
	// Context.fork). Shared by Sub contexts and batch fibers exactly
	// like the run cache.
	ckpts *CheckpointCache
	// Batched execution (see Batched): sched parks this context's fiber
	// between simulation slices, reporting the machine's next pending
	// event cycle (the scheduling key) and receiving the batch horizon —
	// the cycle at which a sibling fiber is next due — so slices run
	// exactly to natural scheduling points (cell.Machine.RunScheduled).
	// Passing sim.Never parks the fiber until no sibling is runnable
	// (batch.Waiting — the inflight-dedup wait). slice is the minimum
	// per-slice cycle budget, and inflight marks cache keys a sibling
	// fiber is currently computing so this fiber waits for the result
	// instead of duplicating the simulation. All nil/zero for serial and
	// parallel contexts.
	sched    func(next sim.Cycle) sim.Cycle
	slice    sim.Cycle
	inflight map[runKey]bool
	// simCycles accumulates the simulated cycles this context's
	// experiments represent — every cache request counts the result's
	// cycle total, hit or miss, so the metric depends only on the
	// workload, not on which runner (or sibling fiber) computed it. A
	// pointer so Sub-derived contexts bill the same counter.
	simCycles *int64
	// recs, when enabled, collects one timeline recording per simulation
	// this context (and its Sub contexts) actually computes. Shared by
	// pointer so derived contexts feed the same trace.
	recs *recState
	// profs mirrors recs for the guest cycle profiler: one per-PC stall
	// attribution per simulation actually computed (cell.Config.Profile).
	profs *profState
}

// RecordedRun is one machine run's timeline recording plus the label it
// renders under in the exported trace.
type RecordedRun struct {
	Label string
	SPEs  int
	Rec   *trace.Recorder
}

type recState struct {
	on   bool
	cap  int
	runs []RecordedRun
}

// ProfiledRun is one machine run's guest cycle profile plus the program
// that symbolizes it — exactly the inputs prof.Run wants.
type ProfiledRun struct {
	Label string
	SPEs  int
	Prog  *program.Program
	Prof  *stats.Profile
}

type profState struct {
	on   bool
	runs []ProfiledRun
}

// NewContext prepares a context with its own machine pool — the one
// context of a sweep (cmd/experiments' default mode, the benchmark's
// paper-sweep). It owns its goroutine budget too: experiments declare
// their runs (runAll) and the mutually independent ones are simulated
// on every core, each on a machine of its own.
func NewContext(opt Options) *Context {
	c := NewContextWithPool(opt, cell.NewPool())
	c.spread = true
	return c
}

// NewContextWithPool prepares a context that recycles machines through
// pool (shared across the contexts of one worker to amortise machine
// construction over a sweep). The pool must not be shared across
// goroutines. The context simulates on the caller's goroutine only: it
// is meant to sit under a scheduler that already occupies the cores.
func NewContextWithPool(opt Options, pool *cell.Pool) *Context {
	return &Context{
		Opt:       opt.WithDefaults(),
		cache:     make(map[runKey]*cell.Result),
		progs:     make(map[progKey]*program.Program),
		pool:      pool,
		ckpts:     NewCheckpointCache(0),
		inflight:  make(map[runKey]bool),
		simCycles: new(int64),
		recs:      &recState{},
		profs:     &profState{},
	}
}

// SetCheckpointCache replaces this context's checkpoint cache — used
// by long-lived workers (the dtad service) to share one cache, often
// spill-backed, across the per-job contexts they build. Must be called
// before the context runs anything; nil disables checkpoint sharing.
func (c *Context) SetCheckpointCache(cc *CheckpointCache) { c.ckpts = cc }

// CheckpointCacheState exposes the context's checkpoint cache (for
// tests and stats).
func (c *Context) CheckpointCacheState() *CheckpointCache { return c.ckpts }

// EnableRecording makes every simulation this context computes record a
// full component timeline (SPU/DMA/NoC/thread spans; see cell.Config
// .Record) with the given per-track span capacity (0 = default).
// Recorded machines bypass the pool, so enable this only for dedicated
// tracing runs.
func (c *Context) EnableRecording(spanCap int) {
	c.recs.on = true
	c.recs.cap = spanCap
}

// Recorded returns the timeline recordings collected so far, one per
// simulation computed while recording was enabled (cache hits replay
// the already-recorded run and add nothing).
func (c *Context) Recorded() []RecordedRun {
	if c.recs == nil {
		return nil
	}
	return c.recs.runs
}

// EnableProfiling makes every simulation this context computes collect
// a guest cycle profile (per-PC stall attribution; see cell.Config
// .Profile). Profiled machines bypass the pool — a pooled machine's
// profile is cleared on reuse — so enable this only for dedicated
// profiling runs.
func (c *Context) EnableProfiling() {
	c.profs.on = true
}

// Profiled returns the guest profiles collected so far, one per
// simulation computed while profiling was enabled (cache hits reuse
// the already-profiled run and add nothing). Export with
// internal/prof.Write.
func (c *Context) Profiled() []ProfiledRun {
	if c.profs == nil {
		return nil
	}
	return c.profs.runs
}

// Sub derives a context at a different operating point that shares this
// context's machinery: machine pool, run and program caches (run keys
// embed the latency and knobs that matter), inflight marks, batching
// hooks and the simulated-cycle counter. Experiments that re-run the
// sweep under modified options (lat1's latency-1 study) use it so their
// simulations interleave and count like everyone else's. opt must agree
// with the parent on the program-shaping fields (Quick, Seed) — the
// program cache is keyed only by benchmark, SPE count and variant.
func (c *Context) Sub(opt Options) *Context {
	return &Context{
		Opt:          opt.WithDefaults(),
		SingleStep:   c.SingleStep,
		NoCheckpoint: c.NoCheckpoint,
		spread:       c.spread,
		cache:        c.cache,
		progs:        c.progs,
		pool:         c.pool,
		ckpts:        c.ckpts,
		sched:        c.sched,
		slice:        c.slice,
		inflight:     c.inflight,
		simCycles:    c.simCycles,
		recs:         c.recs,
		profs:        c.profs,
	}
}

type runKey struct {
	bench    string
	spes     int
	latency  int
	prefetch bool
	nodes    int
	dmaLat   int
	buses    int
	vfp      bool
	frames   int
	chunked  bool
	// Phase-change runs (Context.runPhase): the knob values applied
	// from phaseDiv onward. All zero for ordinary runs, so existing
	// keys are unchanged.
	phaseMemLat int
	phaseMFCLat int
	phaseDiv    int64
}

type progKey struct {
	bench    string
	spes     int
	prefetch bool
	chunked  bool
}

// benchParams returns the paper's problem sizes (or quick ones).
func (c *Context) benchParams(bench string, spes int) workloads.Params {
	w, ok := workloads.Get(bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	n := w.DefaultN
	if c.Opt.Quick {
		switch bench {
		case "bitcnt":
			n = 400
		default:
			n = 16
		}
	}
	p := workloads.Params{N: n, Seed: c.Opt.Seed}
	switch bench {
	case "bitcnt":
		// chunking is fixed by the workload default
	default:
		p.Workers = workloads.AutoWorkers(spes, 32)
	}
	return p
}

// buildProgram builds (and caches) a benchmark program variant.
func (c *Context) buildProgram(bench string, spes int, pf, chunked bool) (*program.Program, error) {
	key := progKey{bench, spes, pf, chunked}
	if p, ok := c.progs[key]; ok {
		return p, nil
	}
	w, _ := workloads.Get(bench)
	prog, err := w.Build(c.benchParams(bench, spes))
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", bench, err)
	}
	if !chunked {
		// Ablation A6: fetch whole regions with single DMA commands.
		for _, t := range prog.Templates {
			for i := range t.Regions {
				t.Regions[i].ChunkBytes = 0
			}
		}
	}
	if pf {
		prog, err = prefetch.Transform(prog)
		if err != nil {
			return nil, fmt.Errorf("transform %s: %w", bench, err)
		}
	}
	c.progs[key] = prog
	return prog, nil
}

// variant describes one machine configuration knob set for run().
type variant struct {
	nodes  int
	dmaLat int // -1 = default
	buses  int // 0 = default
	vfp    bool
	frames int // 0 = default frame count per LSE
}

// memoRun serves key from the run cache, computing it on a miss. When
// this context is a batched fiber (yield != nil) the cache is shared
// with sibling fibers: if one of them is already computing key, this
// fiber parks until the result lands rather than duplicating the
// simulation. The wait cannot deadlock — a waiting fiber holds no
// inflight mark of its own (memoRun calls never nest), so wait-for
// cycles are impossible; and the mark is cleared on every exit path,
// so a failed compute unblocks waiters (which then recompute and hit
// the same deterministic error).
func (c *Context) memoRun(key runKey, compute func() (*cell.Result, error)) (*cell.Result, error) {
	waited := false
	for {
		if r, ok := c.cache[key]; ok {
			if waited {
				InflightDedupHits.Add(1)
			}
			c.bill(key, r, true)
			return r, nil
		}
		if c.sched == nil || !c.inflight[key] {
			break
		}
		waited = true
		// Park as a waiter (batch.Waiting == sim.Never): the scheduler
		// resumes this fiber only when no sibling is runnable — by which
		// point the computing fiber has landed the result (or failed and
		// cleared the mark). No busy-yield round-trips in between.
		c.sched(sim.Never)
	}
	if c.inflight != nil {
		c.inflight[key] = true
		defer delete(c.inflight, key)
	}
	res, err := compute()
	if err != nil {
		return nil, err
	}
	c.bill(key, res, false)
	return res, nil
}

// bill accounts one served cache request — the single accounting point
// of memoRun and runAll. A miss lands the freshly simulated result in
// the run cache; hit or miss, the request bills the result's cycle
// total and per-cause cycles, so the counters track the workloads
// served, not which runner computed them.
func (c *Context) bill(key runKey, res *cell.Result, hit bool) {
	if hit {
		RunCacheHits.Add(1)
	} else {
		RunsExecuted.Add(1)
		c.cache[key] = res
	}
	*c.simCycles += int64(res.Cycles)
	for cs := stats.Cause(0); cs < stats.NumCauses; cs++ {
		if n := res.Agg.Causes[cs]; n != 0 {
			CauseCycles[cs].Add(n)
		}
	}
}

// machineConfig derives the machine configuration for one run from
// the context options and variant knobs — shared by execute and the
// fork path so checkpoint keys agree with what execute would build
// (recording/profiling flags are layered on by execute alone).
func (c *Context) machineConfig(spes int, v variant) cell.Config {
	cfg := cell.DefaultConfig()
	cfg.SPEs = spes
	cfg.Mem.Latency = c.Opt.Latency
	if c.Opt.Latency == 1 {
		// The paper's "all memory latencies set to one cycle" study
		// (§4.3) models the best case "when cache accesses would always
		// hit": READ/WRITE become 1-cycle ideal-cache accesses and the
		// local store is idealised to match.
		cfg.LS.Latency = 1
		cfg.SPU.PerfectCacheLat = 1
	}
	if v.nodes > 0 {
		cfg.Nodes = v.nodes
	}
	if v.dmaLat >= 0 {
		cfg.MFC.CmdLatency = v.dmaLat
	}
	if v.buses > 0 {
		cfg.Noc.Buses = v.buses
	}
	cfg.LSE.VirtualFP = v.vfp
	if v.frames > 0 {
		cfg.LSE.NumFrames = v.frames
	}
	if c.SingleStep {
		cfg.SPU.BurstMax = -1
	}
	return cfg
}

// execute simulates prog on a pooled machine of the context's
// configuration for (spes, v) — the one-run-at-a-time path: fibers
// advance in scheduler slices here, and recording/profiling runs keep
// their machine out of the pool. label names the run in exported
// timelines and profiles.
func (c *Context) execute(prog *program.Program, spes int, v variant, label string) (*cell.Result, error) {
	cfg := c.machineConfig(spes, v)
	recording := c.recs != nil && c.recs.on
	if recording {
		cfg.Record = true
		cfg.RecordCap = c.recs.cap
	}
	profiling := c.profs != nil && c.profs.on
	if profiling {
		cfg.Profile = true
	}
	m, err := c.pool.Get(cfg, prog)
	if err != nil {
		return nil, err
	}
	var res *cell.Result
	if c.sched != nil {
		// Batched fiber: advance in horizon-sized slices, parking between
		// them so sibling simulations interleave on this worker.
		res, err = m.RunScheduled(c.slice, c.sched)
	} else {
		res, err = m.Run()
	}
	if !recording && !profiling {
		// Safe to release immediately, failed run included: Result copies
		// all statistics, the trace buffer is replaced (not cleared) on
		// reuse, harness experiments never read the machine's memory
		// image, and the next Get resets whatever state the run left.
		c.pool.Put(m)
	}
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = fmt.Sprintf("run spes=%d", spes)
	}
	if recording {
		// Keep the recording alive: a pooled machine's recorder is reset
		// on reuse, so recorded machines are not returned to the pool.
		c.recs.runs = append(c.recs.runs, RecordedRun{Label: label, SPEs: spes, Rec: res.Rec})
	}
	if profiling {
		// Same lifetime rule as recordings: a pooled machine's profile is
		// cleared on reuse, so profiled machines stay out of the pool.
		c.profs.runs = append(c.profs.runs, ProfiledRun{Label: label, SPEs: spes, Prog: prog, Prof: res.Prof})
	}
	return checked(res)
}

// checked turns a completed run's failed functional check into an error.
func checked(res *cell.Result) (*cell.Result, error) {
	if res.CheckErr != nil {
		return nil, fmt.Errorf("functional check: %w", res.CheckErr)
	}
	return res, nil
}

// defaultVariant keeps all knobs at paper values.
func defaultVariant() variant { return variant{dmaLat: -1} }

// benchmarks is the paper's evaluation set, in presentation order.
var benchmarks = []string{"bitcnt", "mmul", "zoom"}

// benchLabel renders "bitcnt(10000)"-style labels.
func (c *Context) benchLabel(bench string) string {
	return fmt.Sprintf("%s(%d)", bench, c.benchParams(bench, c.Opt.SPEs).N)
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
