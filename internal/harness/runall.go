package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/program"
)

// runSpec declares one simulation an experiment needs. Experiments
// build the list of their specs first and render rows from what runAll
// returns, so the context sees every run before any of them starts —
// the harness-side version of issuing the accesses ahead of their use.
// An experiment starts from Context.spec and sets the fields its rows
// vary. A spec is everything the run's result depends on: the machine,
// the program build and any mid-run phase change. It keys the run cache
// and the dedupe of one spec list, so two runs are the same simulation
// exactly when their specs are equal.
type runSpec struct {
	cfg   cell.Config
	build build
	phase phase // the zero phase changes nothing
}

// spec declares one run of bench on c's machine with spes SPEs: the
// paper's knobs and c's latency, problem size and seed, prefetch-
// transformed when pf is set.
func (c *Context) spec(bench string, spes int, pf bool) runSpec {
	opt := c.Opt
	opt.SPEs = spes
	cfg := MachineConfig(opt)
	if c.SingleStep {
		cfg.SPU.BurstMax = -1
	}
	return runSpec{cfg: cfg, build: build{bench: bench, params: c.Opt.benchParams(bench, spes), pf: pf}}
}

// label names a run in exported timelines and profiles: the benchmark,
// machine size, transformation and latency, then each knob set away
// from the paper's value.
func (s *runSpec) label() string {
	b, cfg, def := &s.build, &s.cfg, cell.DefaultConfig()
	l := fmt.Sprintf("%s spes=%d pf=%v lat=%d", b.bench, cfg.SPEs, b.pf, cfg.Mem.Latency)
	for _, knob := range []struct {
		set  bool
		name string
	}{
		{cfg.Nodes != def.Nodes, fmt.Sprintf(" nodes=%d", cfg.Nodes)},
		{cfg.Noc.Buses != def.Noc.Buses, fmt.Sprintf(" buses=%d", cfg.Noc.Buses)},
		{cfg.MFC.CmdLatency != def.MFC.CmdLatency, fmt.Sprintf(" cmdlat=%d", cfg.MFC.CmdLatency)},
		{b.opt.WholeRegions, " unchunked"},
		{b.opt.WriteBack, " writeback"},
		{b.params.Chains != 0, fmt.Sprintf(" chains=%d", b.params.Chains)},
		{cfg.LSE.VirtualFP, " vfp"},
		{cfg.LSE.NumFrames != def.LSE.NumFrames, fmt.Sprintf(" frames=%d", cfg.LSE.NumFrames)},
	} {
		if knob.set {
			l += knob.name
		}
	}
	return l
}

// wrap names the failing run in a simulation error.
func (s *runSpec) wrap(err error) error {
	if s.phase != (phase{}) {
		return fmt.Errorf("%s phase@%d: %w", s.label(), s.phase.div, err)
	}
	return fmt.Errorf("%s: %w", s.label(), err)
}

// observed reports whether the spec's run is observed on c. Phase runs
// never are: a restored phase run's prefix was never executed here.
func (s *runSpec) observed(c *Context) bool {
	return s.phase == phase{} && c.ob != nil
}

// machine returns the pool the spec's machine comes from on c and the
// machine's configuration. A nil pool means a machine built for
// this one observed run and never pooled: a pooled machine's Reset would
// clear its recorder and profile before settle reads them.
func (s *runSpec) machine(c *Context) (*cell.Pool, cell.Config) {
	cfg := s.cfg
	if !s.observed(c) {
		return c.pool, cfg
	}
	cfg.Record = c.ob.timeline
	return nil, cfg
}

// runOne is runAll of a single spec.
func (c *Context) runOne(s runSpec) (*cell.Result, error) {
	res, errs := c.runAll([]runSpec{s})
	return res[0], errs[0]
}

// runList is runAll for experiments that cannot render anything unless
// every run succeeded: it reports the first error in spec order.
func (c *Context) runList(specs []runSpec) ([]*cell.Result, error) {
	res, errs := declare(c, specs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// declare hands an experiment's spec list to runAll; the identity test
// swaps in a reference loop of one-spec calls. (runOne is one spec
// already, and calling runAll directly keeps its spec on the stack.)
var declare = (*Context).runAll

// runAll simulates every spec and returns results and errors by spec
// index. It is the one way the harness simulates, and its outcome never
// depends on how it ran: each simulation is single-threaded and
// deterministic on a machine of its own, and a Reset machine is
// indistinguishable from a new one. Only step 3 leaves the calling
// goroutine, and it touches nothing but its runs' machines, handed
// between goroutines through one channel of idle machines per
// configuration:
//
//  1. plan: resolve run-cache hits and duplicate specs (the first is
//     the miss, the others hit it), build the missing runs' programs,
//     read a phase run's prefix snapshot from the checkpoint cache, and
//     group the missing runs by machine: one group per pooled
//     configuration, and one group of its own for each observed run,
//     whose machine is never pooled;
//  2. take the machines, in spec order: a pooled group gets
//     min(workers, its runs) machines from its pool, each readied for one
//     of its first runs, and a never-pooled run a machine built for it —
//     so the pool misses depend only on the spec lists and workers;
//  3. run: min(workers, runs) goroutines, the caller one of them, take
//     the runs in spec order from one cursor. Each takes its run's
//     readied machine or an idle one of its group, Reset to the run's
//     program — with step 2's counts one is always idle — and hands it
//     back to the group when done; a panic inside a simulation becomes
//     that spec's error. workers is GOMAXPROCS for a context that owns
//     its cores (NewContext) and 1 for any other, which runs everything
//     on the caller;
//  4. return the machines, then in spec order write a phase run's
//     snapshot back, keep an observed run's timeline and profile, fill
//     the run cache and bill RunsExecuted/RunCacheHits/simCycles/CauseCycles.
//
// Phase runs sharing a prefix in one call all read the cache before any
// of them captured it, so phaseMemLat declares the runs that capture a
// prefix in one list and the runs that restore it in the next.
func (c *Context) runAll(specs []runSpec) ([]*cell.Result, []error) {
	p := plan{
		runs:    make([]planned, len(specs)),
		results: make([]*cell.Result, len(specs)),
		errs:    make([]error, len(specs)),
	}
	var groups []group
	// Each group's machine configuration, by group index. The first sits
	// on the stack, so a one-spec plan copies no cell.Config to the heap.
	var cfg0 [1]cell.Config
	cfgs := cfg0[:0]

	// 1. Plan.
	for i := range specs {
		s, r := &specs[i], &p.runs[i]
		r.from = -1
		if res, ok := c.cache.Get(*s); ok {
			p.results[i], r.from = res, i
			continue
		}
		if r.from = p.simulatedBefore(specs[:i], *s); r.from >= 0 {
			continue
		}
		if r.prog, p.errs[i] = c.buildProgram(s.build); p.errs[i] != nil {
			continue
		}
		pool, cfg := s.machine(c)
		if s.phase != (phase{}) {
			r.fork = &forkRun{phase: s.phase}
			if c.ckpts != nil {
				r.fork.key = cell.SnapshotKey(cfg, r.prog, s.phase.div)
				r.fork.cached, _ = c.ckpts.Get(r.fork.key)
			}
		}
		if r.group = groupOf(groups, cfgs, pool, cfg); r.group < 0 {
			r.group = len(groups)
			groups = append(groups, group{pool: pool})
			cfgs = append(cfgs, cfg)
		}
		groups[r.group].runs++
	}

	workers := 1
	if c.spread {
		workers = runtime.GOMAXPROCS(0)
	}
	// 2. Machines out.
	p.acquire(groups, cfgs, workers)
	// 3. Runs, machines back.
	p.runOn(groups, workers)

	// 4. Results, caches and counters, in spec order.
	for i := range specs {
		s, r := &specs[i], &p.runs[i]
		if r.from >= 0 {
			p.results[i], p.errs[i] = p.results[r.from], p.errs[r.from]
		} else if r.prog != nil {
			p.results[i], p.errs[i] = c.settle(s, r, p.results[i], p.errs[i])
		}
		if p.errs[i] == nil {
			c.bill(*s, p.results[i], r.from >= 0)
		}
	}
	return p.results, p.errs
}

// plan is runAll's working state, by spec index. Until step 4 settles
// them, a simulating spec's result and error are what step 3 left. The
// specs stay out of it, so step 3's goroutines cannot move them off the
// caller's stack.
type plan struct {
	runs    []planned
	results []*cell.Result
	errs    []error
}

// planned is runAll's record of one spec.
type planned struct {
	from  int              // the spec whose result it takes (itself for a run-cache hit), or -1
	prog  *program.Program // the program a simulating spec runs
	group int              // the group of the spec's machine
	m     *cell.Machine    // the machine step 2 readied for this spec, if any
	fork  *forkRun         // a phase run's checkpoint traffic
}

// simulates reports whether step 3 runs the spec: it misses the run
// cache and step 1 built its program and step 2 its machine (err is the
// spec's error so far).
func (r *planned) simulates(err error) bool {
	return r.from < 0 && r.prog != nil && err == nil
}

// simulatedBefore returns the first of specs (the ones planned so far)
// that simulates s, or -1.
func (p plan) simulatedBefore(specs []runSpec, s runSpec) int {
	for j := range specs {
		if p.runs[j].from < 0 && specs[j] == s {
			return j
		}
	}
	return -1
}

// group is the missing runs of one runAll call that share a machine
// configuration, and the machines step 2 took for them.
type group struct {
	pool     *cell.Pool // nil: one run on a machine built for it, never pooled
	runs     int
	machines int
	idle     chan *cell.Machine // the group's machines between runs
}

// groupOf returns the index of the group that runs pooled machines of
// cfg from pool, or -1; cfgs holds the groups' configurations.
func groupOf(groups []group, cfgs []cell.Config, pool *cell.Pool, cfg cell.Config) int {
	if pool == nil {
		return -1
	}
	for k := range groups {
		if groups[k].pool == pool && cfgs[k] == cfg {
			return k
		}
	}
	return -1
}

// acquire readies min(workers, runs) machines of each group, in spec
// order, each for the program of one run. A run whose program the
// machine rejects keeps the error, and the next run is tried.
func (p plan) acquire(groups []group, cfgs []cell.Config, workers int) {
	for i := range p.runs {
		r := &p.runs[i]
		if !r.simulates(p.errs[i]) {
			continue
		}
		g := &groups[r.group]
		if g.machines == min(workers, g.runs) {
			continue
		}
		if g.pool != nil {
			r.m, p.errs[i] = g.pool.Get(cfgs[r.group], r.prog)
		} else {
			r.m, p.errs[i] = cell.New(cfgs[r.group], r.prog)
		}
		if p.errs[i] == nil {
			g.machines++
		}
	}
	for k := range groups {
		if g := &groups[k]; g.pool != nil && g.machines > 0 {
			g.idle = make(chan *cell.Machine, g.machines)
		}
	}
}

// runOn runs the plan's simulating specs on min(workers, runs)
// goroutines, the caller one of them, and returns the pooled machines
// on every exit path: the next Get resets whatever state the last run
// left.
func (p plan) runOn(groups []group, workers int) {
	defer func() {
		for k := range groups {
			for g := &groups[k]; len(g.idle) > 0; {
				g.pool.Put(<-g.idle)
			}
		}
	}()
	runs := 0
	for i := range p.runs {
		if p.runs[i].simulates(p.errs[i]) {
			runs++
		}
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(p.runs); i = int(next.Add(1) - 1) {
			if r := &p.runs[i]; r.simulates(p.errs[i]) {
				p.results[i], p.errs[i] = r.run(&groups[r.group])
			}
		}
	}
	var wg sync.WaitGroup
	for workers = min(workers, runs); workers > 1; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// run takes the spec's machine — the one step 2 readied for it, or an
// idle one of g Reset to its program — simulates it and hands the
// machine back to g. It is the only code of runAll that may execute off
// the calling goroutine.
func (r *planned) run(g *group) (*cell.Result, error) {
	m := r.m
	if m == nil {
		m = <-g.idle
		if err := m.Reset(r.prog); err != nil {
			g.idle <- m // a refused program leaves the machine untouched
			return nil, err
		}
	}
	res, err := r.simulate(m)
	if g.idle != nil {
		g.idle <- m
	}
	return res, err
}

// simulate runs m, readied for r's program, to the end (a phase run
// through its prefix first), turning a panic into an error: off the
// calling goroutine nothing else would recover it.
func (r *planned) simulate(m *cell.Machine) (res *cell.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("simulation panicked: %v", p)
		}
	}()
	if r.fork != nil {
		return r.fork.run(m, r.prog)
	}
	return m.Run()
}

// settle turns the raw result or error step 3 left for spec s
// into its outcome: phase-run snapshot traffic, an observed run's
// timeline and profile, the functional check and the error naming the
// run.
func (c *Context) settle(s *runSpec, r *planned, res *cell.Result, err error) (*cell.Result, error) {
	if r.fork != nil {
		r.fork.settle(c.ckpts)
	}
	if err != nil {
		return nil, s.wrap(err)
	}
	if s.observed(c) {
		c.ob.runs = append(c.ob.runs, obs.Run{Label: s.label(), SPEs: s.cfg.SPEs, Prog: r.prog, Rec: res.Rec, Prof: r.m.Profile()})
	}
	if res.CheckErr != nil {
		return nil, s.wrap(fmt.Errorf("functional check: %w", res.CheckErr))
	}
	return res, nil
}
