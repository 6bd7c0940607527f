package harness

import (
	"runtime"
	"sync"

	"repro/internal/batch"
	"repro/internal/cell"
	"repro/internal/program"
	"repro/internal/sim"
)

// BatchState is the state the fibers of one batched worker share: the
// machine pool, the run and program caches, the inflight marks and the
// slice length. Sharing is lock-free by construction — the fibers of
// one batch.Run never execute simultaneously (see package batch) — and
// sharing the RUN CACHE is where batching beats Parallel: the paper's
// sweep re-requests the same simulations across experiments, and one
// scheduler dedups them where per-experiment goroutines each recompute.
type BatchState struct {
	opt   Options
	pool  *cell.Pool
	cache map[runKey]*cell.Result
	progs map[progKey]*program.Program
	ckpts *CheckpointCache
	// inflight marks run-cache keys some fiber is computing right now,
	// so a sibling wanting the same simulation waits instead of
	// duplicating it (see Context.memoRun).
	inflight map[runKey]bool
	slice    sim.Cycle
}

// NewBatchState prepares shared state for one batched worker. slice is
// the anti-ping-pong floor each fiber's simulation advances between
// yields at minimum (the horizon scheduler extends slices to the batch
// horizon); slice <= 0 selects cell.DefaultSlice. width is the number
// of fibers that will share the state — the machine pool's free list
// is sized to it, since up to width machines of one configuration can
// be live at once (width <= 1 keeps the default cap).
func NewBatchState(opt Options, slice sim.Cycle, width int) *BatchState {
	if slice <= 0 {
		slice = cell.DefaultSlice
	}
	return &BatchState{
		opt:      opt.WithDefaults(),
		pool:     cell.NewBatchPool(width),
		cache:    make(map[runKey]*cell.Result),
		progs:    make(map[progKey]*program.Program),
		ckpts:    NewCheckpointCache(0),
		inflight: make(map[runKey]bool),
		slice:    slice,
	}
}

// SetCheckpointCache replaces the state's snapshot cache, so a caller
// owning a longer-lived cache (the dtad worker keeps one per worker,
// outliving any shared run-cache generation — snapshots are keyed by
// content, not by Options) can share it across states.
func (s *BatchState) SetCheckpointCache(cc *CheckpointCache) {
	if cc != nil {
		s.ckpts = cc
	}
}

// SetPool replaces the state's machine pool, so a caller owning a
// longer-lived one (the dtad worker keeps one per worker: a machine's
// shape depends on its configuration, never on Quick or Seed) shares it
// across states instead of building machines anew for every state. The
// pool must be confined to the goroutine that runs the state's fibers.
func (s *BatchState) SetPool(pool *cell.Pool) {
	if pool != nil {
		s.pool = pool
	}
}

// Options returns the normalised Options the state was built for.
func (s *BatchState) Options() Options { return s.opt }

// Context returns a fiber-local Context over the shared state: caches,
// pool and inflight marks are shared with sibling fibers, while sched
// and the simulated-cycle counter belong to this fiber alone. sched is
// the fiber's scheduling hook (see Context.sched): it reports the
// machine's next pending event and receives the batch horizon.
func (s *BatchState) Context(sched func(next sim.Cycle) sim.Cycle) *Context {
	return s.ContextFor(s.opt, sched)
}

// ContextFor is Context with per-job Options: jobs whose Options agree
// on the program-shaping fields (Quick, Seed) may share one BatchState
// even when their latency or machine-size knobs differ — every other
// Options field is folded into the run-cache key of each simulation —
// so the dtad service keys its shared states by exactly that pair.
// opt's Quick and Seed must match the state's; mixing them would alias
// distinct programs under one cache key.
func (s *BatchState) ContextFor(opt Options, sched func(next sim.Cycle) sim.Cycle) *Context {
	opt = opt.WithDefaults()
	if opt.Quick != s.opt.Quick || opt.Seed != s.opt.Seed {
		panic("harness: BatchState shared across Options differing in Quick/Seed")
	}
	return &Context{
		Opt:       opt,
		cache:     s.cache,
		progs:     s.progs,
		pool:      s.pool,
		ckpts:     s.ckpts,
		inflight:  s.inflight,
		slice:     s.slice,
		sched:     sched,
		simCycles: new(int64),
		recs:      &recState{},
		profs:     &profState{},
	}
}

// NewBatchedContext returns a context whose simulations advance under a
// fiber scheduling hook (see Context.sched) in slices of at least slice
// cycles (0 = cell.DefaultSlice) — for callers that interleave
// heterogeneous work (jobs with differing Quick/Seed, as in the dtad
// service) and therefore cannot share a BatchState's caches. The
// context owns fresh caches but shares pool, which is safe across the
// fibers of one scheduler: they never execute simultaneously.
func NewBatchedContext(opt Options, pool *cell.Pool, slice sim.Cycle, sched func(next sim.Cycle) sim.Cycle) *Context {
	c := NewContextWithPool(opt, pool)
	if slice <= 0 {
		slice = cell.DefaultSlice
	}
	c.slice = slice
	c.sched = sched
	return c
}

// workerKit is the recyclable part of a batched worker's state: the
// machine pool and the compiled-program cache. Both hold deterministic
// build artifacts, never results — a recycled kit changes how fast a
// sweep's simulations start (machine graphs, 156 kB local stores and
// compiled programs stay warm), not what they compute — so Batched
// parks retired kits in a process-level stash and back-to-back calls
// (benchmark iterations, repeated sweeps in one process) skip the
// rebuild. Run caches are NOT recycled: each call still executes its
// simulations. Kits are handed out exclusively, preserving the pool's
// single-threaded contract; the program cache is flushed when the
// program-shaping Options (Quick, Seed) differ from the previous owner,
// since progKey does not include them.
type workerKit struct {
	pool  *cell.Pool
	progs map[progKey]*program.Program
	quick bool
	seed  uint64
}

var kitStash struct {
	sync.Mutex
	free []*workerKit
}

// kitStashCap bounds parked kits so a burst of wide sweeps cannot strand
// an unbounded number of idle machine pools.
const kitStashCap = 32

// getWorkerKit returns a recycled kit compatible with opt (normalised),
// or a fresh one. width sizes the pool as in NewBatchPool.
func getWorkerKit(opt Options, width int) *workerKit {
	kitStash.Lock()
	defer kitStash.Unlock()
	if n := len(kitStash.free); n > 0 {
		k := kitStash.free[n-1]
		kitStash.free[n-1] = nil
		kitStash.free = kitStash.free[:n-1]
		k.pool.GrowCap(width)
		if k.quick != opt.Quick || k.seed != opt.Seed {
			k.progs = make(map[progKey]*program.Program)
			k.quick, k.seed = opt.Quick, opt.Seed
		}
		return k
	}
	return &workerKit{
		pool:  cell.NewBatchPool(width),
		progs: make(map[progKey]*program.Program),
		quick: opt.Quick,
		seed:  opt.Seed,
	}
}

// putWorkerKit parks a kit for the next Batched call. The caller must
// not touch the kit (or the BatchState it was attached to) afterwards.
func putWorkerKit(k *workerKit) {
	kitStash.Lock()
	defer kitStash.Unlock()
	if len(kitStash.free) < kitStashCap {
		kitStash.free = append(kitStash.free, k)
	}
}

// attach points the state's pool and program cache at the kit's.
func (k *workerKit) attach(s *BatchState) {
	s.SetPool(k.pool)
	s.progs = k.progs
}

// SchedTask adapts a harness workload to a batch.KeyedTask: run receives
// the fiber's scheduling hook in Context form (sim.Cycle keys). Shared
// by Batched and the dtad worker so the int64/sim.Cycle bridging lives
// in one place.
func SchedTask(run func(sched func(next sim.Cycle) sim.Cycle)) batch.KeyedTask {
	return func(yield func(key int64) int64) {
		run(func(next sim.Cycle) sim.Cycle {
			return sim.Cycle(yield(int64(next)))
		})
	}
}

// Batched executes experiments on a bounded worker pool, each worker
// interleaving up to width experiments cooperatively under the
// horizon-aware scheduler (batch.RunScheduled): the fiber whose
// simulation has the earliest pending event runs next, for a slice
// sized to the batch horizon, so K working sets stay resident per
// goroutine and the worker's run cache is shared across all K. Results
// land in input order, and a panic inside an experiment is contained to
// that experiment (RunOn), exactly as in Parallel.
//
// Every simulation remains single-threaded and byte-identical to a
// Serial run — slices land on the engine's natural event boundaries and
// fibers only ever hand control to each other between slices — so
// batching changes throughput, never results.
//
// width <= 1 degenerates to Parallel. workers <= 0 selects
// runtime.NumCPU(); workers are clamped so each can hold at least one
// fiber's worth of work.
func Batched(opt Options, exps []*Experiment, workers, width int) []RunResult {
	if width <= 1 {
		return Parallel(opt, exps, workers)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if maxW := (len(exps) + width - 1) / width; workers > maxW {
		workers = maxW
	}
	results := make([]RunResult, len(exps))
	if len(exps) == 0 {
		return results
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			state := NewBatchState(opt, 0, width)
			kit := getWorkerKit(state.opt, width)
			kit.attach(state)
			defer putWorkerKit(kit)
			batch.RunScheduled(width, batch.KeyedFeedChan(idxCh, func(i int) batch.KeyedTask {
				return SchedTask(func(sched func(next sim.Cycle) sim.Cycle) {
					results[i] = RunOn(state.Context(sched), exps[i])
				})
			}))
		}()
	}
	for i := range exps {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return results
}
