package service

import (
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/harness"
)

// SharedStates gauges the harness.BatchStates currently held by worker
// state registries — in use by at least one job or idling warm — across
// the process. Exposed as dtad_batch_shared_states.
var SharedStates atomic.Int64

// stateKey identifies the Options fields that shape programs: two jobs
// agreeing on Quick and Seed build byte-identical programs for a given
// benchmark, so they may share one BatchState's run and program caches.
// Every other Options field (latency, SPE budget) is folded into each
// simulation's run-cache key and needs no separation here — see
// harness.BatchState.ContextFor.
type stateKey struct {
	quick bool
	seed  uint64
}

// stateIdleCap bounds how many zero-ref states a registry keeps warm.
// A state holds the compiled programs and every result its jobs computed, so
// the cap trades memory for the chance that the next sweep rejoins a
// warm cache; sweeps target one operating point at a time, so a few
// entries cover the realistic churn.
const stateIdleCap = 4

type stateEntry struct {
	state *harness.BatchState
	refs  int
}

// stateRegistry hands out refcounted BatchStates keyed by stateKey, so
// every job of one worker whose Options agree on the program-shaping
// fields shares run/program caches and inflight dedup marks —
// concurrently for the fibers of a batched worker, generation after
// generation for a sequential one. The machine pool (like the
// checkpoint cache) is the worker's, shared by all its states: a
// machine's shape depends on its configuration, not on Quick or Seed,
// so a never-seen seed resets a pooled machine instead of building a
// 1.5 MB one. Per-worker and lock-free like the caches it manages: the
// fibers of one worker never execute simultaneously. Zero-ref states
// idle in LRU order up to stateIdleCap before eviction.
type stateRegistry struct {
	width  int
	pool   *cell.Pool
	ckpts  *harness.CheckpointCache
	states map[stateKey]*stateEntry
	idle   []stateKey // zero-ref states, coldest first
}

func newStateRegistry(width int, ckpts *harness.CheckpointCache) *stateRegistry {
	if width < 1 {
		width = 1
	}
	return &stateRegistry{
		width:  width,
		pool:   cell.NewBatchPool(width),
		ckpts:  ckpts,
		states: make(map[stateKey]*stateEntry),
	}
}

// acquire returns the shared state for opt's program-shaping fields,
// creating it on first use, and takes a reference that release drops.
func (r *stateRegistry) acquire(opt harness.Options) *harness.BatchState {
	opt = opt.WithDefaults()
	k := stateKey{opt.Quick, opt.Seed}
	e := r.states[k]
	if e == nil {
		st := harness.NewBatchState(opt, 0, r.width)
		st.SetPool(r.pool)
		st.SetCheckpointCache(r.ckpts)
		e = &stateEntry{state: st}
		r.states[k] = e
		SharedStates.Add(1)
	} else if e.refs == 0 {
		r.unidle(k)
	}
	e.refs++
	return e.state
}

// release drops one reference; the last reference parks the state on
// the idle list, evicting the coldest idler beyond the cap.
func (r *stateRegistry) release(opt harness.Options) {
	opt = opt.WithDefaults()
	k := stateKey{opt.Quick, opt.Seed}
	e := r.states[k]
	if e == nil || e.refs == 0 {
		return
	}
	if e.refs--; e.refs > 0 {
		return
	}
	r.idle = append(r.idle, k)
	for len(r.idle) > stateIdleCap {
		cold := r.idle[0]
		r.idle = r.idle[1:]
		delete(r.states, cold)
		SharedStates.Add(-1)
	}
}

func (r *stateRegistry) unidle(k stateKey) {
	for i, ik := range r.idle {
		if ik == k {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			return
		}
	}
}
