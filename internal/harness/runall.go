package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cell"
	"repro/internal/program"
)

// runSpec declares one simulation an experiment needs. Experiments
// build the list of their specs first and render rows from what runAll
// returns, so the context sees every run before any of them starts —
// the harness-side version of issuing the accesses ahead of their use.
type runSpec struct {
	// on is the context the run belongs to: its operating point shapes
	// the run and its caches, pool and counters serve it. nil means the
	// context runAll is called on; ablation-memlat names its private
	// per-latency contexts here.
	on       *Context
	bench    string
	spes     int
	prefetch bool
	v        variant
	// unchunked fetches whole regions with single DMA commands (A6).
	unchunked bool
	// prog, when set, is a program the experiment built itself, in place
	// of the cached benchmark build. Such a run is the experiment's own:
	// it bypasses the run cache and the cycle accounting.
	prog *program.Program
	// cfg, with prog, is a hand-built machine configuration: the machine
	// is constructed for the run and never pooled (ablation-vfp).
	cfg *cell.Config
}

// benchSpec is the common spec: one benchmark run at paper knobs.
func benchSpec(bench string, spes int, prefetchOn bool) runSpec {
	return runSpec{bench: bench, spes: spes, prefetch: prefetchOn, v: defaultVariant()}
}

func (s runSpec) owner(c *Context) *Context {
	if s.on != nil {
		return s.on
	}
	return c
}

// key is the spec's run-cache key on context c.
func (s runSpec) key(c *Context) runKey {
	return runKey{s.bench, s.spes, c.Opt.Latency, s.prefetch, s.v.nodes, s.v.dmaLat,
		s.v.buses, s.v.vfp, s.v.frames, !s.unchunked, 0, 0, 0}
}

// label names a keyed run in exported timelines and profiles.
func (s runSpec) label(c *Context) string {
	if s.prog != nil {
		return ""
	}
	l := fmt.Sprintf("%s spes=%d pf=%v lat=%d", s.bench, s.spes, s.prefetch, c.Opt.Latency)
	if s.unchunked {
		l += " unchunked"
	}
	return l
}

// wrap names the failing run in a simulation error.
func (s runSpec) wrap(err error) error {
	if err == nil || s.prog != nil {
		return err
	}
	return fmt.Errorf("%s spes=%d pf=%v: %w", s.bench, s.spes, s.prefetch, err)
}

// program resolves the spec's program on c (cached benchmark build or
// the experiment's own).
func (c *Context) program(s runSpec) (*program.Program, error) {
	if s.prog != nil {
		return s.prog, nil
	}
	return c.buildProgram(s.bench, s.spes, s.prefetch, !s.unchunked)
}

// config resolves the spec's machine configuration on c.
func (c *Context) config(s runSpec) cell.Config {
	if s.cfg != nil {
		return *s.cfg
	}
	return c.machineConfig(s.spes, s.v)
}

// run executes (with caching) one benchmark configuration.
func (c *Context) run(bench string, spes int, prefetchOn bool, v variant) (*cell.Result, error) {
	return c.runOne(runSpec{bench: bench, spes: spes, prefetch: prefetchOn, v: v})
}

// runOne is runAll of a single spec.
func (c *Context) runOne(s runSpec) (*cell.Result, error) {
	res, errs := c.runAll([]runSpec{s})
	return res[0], errs[0]
}

// runList is runAll for experiments that cannot render anything unless
// every run succeeded: it reports the first error in spec order.
func (c *Context) runList(specs []runSpec) ([]*cell.Result, error) {
	res, errs := c.runAll(specs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spreads reports whether runAll may simulate on goroutines of its own:
// the context owns its cores (see Context.spread), is not a fiber, and
// is not recording or profiling (those runs keep their machines and are
// collected in execution order).
func (c *Context) spreads() bool {
	return c.spread && c.sched == nil && !c.recs.on && !c.profs.on
}

// runAll simulates every spec and returns results and errors by spec
// index. The outcome never depends on how it ran: each simulation is
// single-threaded and deterministic on a machine of its own, and a
// Reset machine is indistinguishable from a new one.
//
// A context under an outer scheduler, a fiber, or a recording/profiling
// context takes its specs one by one, each through memoRun exactly as a
// loop of run calls would. A context that owns its cores (NewContext)
// goes through four steps, and touches caches, pools and counters on
// the calling goroutine only — there is no lock anywhere:
//
//  1. plan, on the caller: resolve run-cache hits and duplicate keys,
//     build the missing runs' programs, and chain the missing runs by
//     machine configuration — one machine per distinct configuration,
//     driven through that configuration's runs with Machine.Reset, the
//     very machine a serial loop would have reused through the pool;
//  2. take each chain's machine from the pool, on the caller;
//  3. run the chains on min(GOMAXPROCS, chains) goroutines (the caller
//     is one of them) that touch nothing but their own machine; a panic
//     inside a simulation is recovered there and carried back as that
//     spec's error;
//  4. back on the caller: return the machines, fill the run cache and
//     bill RunsExecuted/RunCacheHits/simCycles/CauseCycles in spec order.
//
// Duplicate keys are recognised per owning context: the first is the
// miss, the others are hits of it.
func (c *Context) runAll(specs []runSpec) ([]*cell.Result, []error) {
	results := make([]*cell.Result, len(specs))
	errs := make([]error, len(specs))
	if !c.spreads() {
		for i, s := range specs {
			results[i], errs[i] = s.owner(c).simulateMemo(s)
		}
		return results, errs
	}

	// 1. Plan.
	hit := make([]bool, len(specs))   // billed as a run-cache hit
	sameAs := make([]int, len(specs)) // earlier spec with this spec's key, or -1
	type ownedKey struct {
		on  *Context
		key runKey
	}
	firstOf := make(map[ownedKey]int)
	var chains []*chain
	chainOf := make(map[chainKey]*chain)
	for i, s := range specs {
		o := s.owner(c)
		sameAs[i] = -1
		if s.prog == nil {
			key := s.key(o)
			if r, ok := o.cache[key]; ok {
				results[i], hit[i] = r, true
				continue
			}
			if j, ok := firstOf[ownedKey{o, key}]; ok {
				sameAs[i], hit[i] = j, true
				continue
			}
			firstOf[ownedKey{o, key}] = i
		}
		prog, err := o.program(s)
		if err != nil {
			errs[i] = err
			continue
		}
		ck := chainKey{pool: o.pool, cfg: o.config(s)}
		if s.cfg != nil {
			ck.pool = nil
		}
		ch := chainOf[ck]
		if ch == nil {
			ch = &chain{chainKey: ck}
			chainOf[ck] = ch
			chains = append(chains, ch)
		}
		ch.runs = append(ch.runs, chainRun{i: i, spec: s, prog: prog})
	}

	// 2-3. Machines out, chains run, machines back.
	runChains(chains)

	// 4. Results, cache and counters, in spec order.
	for _, ch := range chains {
		for _, r := range ch.runs {
			results[r.i], errs[r.i] = r.res, r.err
		}
	}
	for i, s := range specs {
		if j := sameAs[i]; j >= 0 {
			results[i], errs[i] = results[j], errs[j]
		}
		if s.prog == nil && errs[i] == nil {
			o := s.owner(c)
			o.bill(s.key(o), results[i], hit[i])
		}
	}
	return results, errs
}

// simulateMemo is the one-by-one path for one spec: through the run
// cache when the spec is keyed, straight to the simulation otherwise.
func (c *Context) simulateMemo(s runSpec) (*cell.Result, error) {
	simulate := func() (*cell.Result, error) {
		prog, err := c.program(s)
		if err != nil {
			return nil, err
		}
		if s.cfg != nil {
			m, err := cell.New(*s.cfg, prog)
			if err != nil {
				return nil, err
			}
			return runMachine(m)
		}
		res, err := c.execute(prog, s.spes, s.v, s.label(c))
		return res, s.wrap(err)
	}
	if s.prog != nil {
		return simulate()
	}
	return c.memoRun(s.key(c), simulate)
}

// runMachine runs a ready machine to completion, functional check
// included.
func runMachine(m *cell.Machine) (*cell.Result, error) {
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return checked(res)
}

// runChains takes each chain's machine, runs the chains on
// min(GOMAXPROCS, chains) goroutines — the caller is one of them, so a
// single chain or a single core runs inline — and returns the machines
// on every exit path.
func runChains(chains []*chain) {
	defer func() {
		for _, ch := range chains {
			ch.release()
		}
	}()
	work := make(chan *chain, len(chains))
	for _, ch := range chains {
		ch.acquire()
		work <- ch
	}
	close(work)
	drain := func() {
		for ch := range work {
			ch.run()
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(chains)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// chainKey identifies the machine a chain runs on: the pool it comes
// from (nil for a hand-built machine) and its configuration.
type chainKey struct {
	pool *cell.Pool
	cfg  cell.Config
}

// chain is the missing runs of one runAll call that share a machine, in
// spec order. It owns everything its goroutine touches: the machine and
// its runs' programs, results and errors.
type chain struct {
	chainKey
	m     *cell.Machine
	runs  []chainRun
	ready int // the run m was readied for by acquire
}

type chainRun struct {
	i    int // index in runAll's spec list
	spec runSpec
	prog *program.Program
	res  *cell.Result
	err  error
}

// acquire readies the chain's machine for its first run. A run whose
// program the machine rejects keeps the error and the next one is tried;
// m stays nil when none fits.
func (ch *chain) acquire() {
	for n := range ch.runs {
		r := &ch.runs[n]
		if ch.pool != nil {
			ch.m, r.err = ch.pool.Get(ch.cfg, r.prog)
		} else {
			ch.m, r.err = cell.New(ch.cfg, r.prog)
		}
		if r.err == nil {
			ch.ready = n
			return
		}
	}
}

// run drives the chain's machine through its runs. It is the only code
// of runAll that may execute off the calling goroutine.
func (ch *chain) run() {
	if ch.m == nil {
		return
	}
	for n := ch.ready; n < len(ch.runs); n++ {
		r := &ch.runs[n]
		if n > ch.ready {
			if r.err = ch.m.Reset(r.prog); r.err != nil {
				continue
			}
		}
		r.res, r.err = contained(ch.m)
		r.err = r.spec.wrap(r.err)
	}
}

// contained is runMachine with a panic inside the simulation converted
// to an error: off the calling goroutine nothing else would recover it.
func contained(m *cell.Machine) (res *cell.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("simulation panicked: %v", r)
		}
	}()
	return runMachine(m)
}

// release returns a pooled machine; the next Get resets whatever state
// the last run (finished, failed or panicked) left in it.
func (ch *chain) release() {
	if ch.pool != nil && ch.m != nil {
		ch.pool.Put(ch.m)
	}
	ch.m = nil
}
