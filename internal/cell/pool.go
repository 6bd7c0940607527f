package cell

import (
	"sync/atomic"

	"repro/internal/program"
)

// Process-wide pool counters, aggregated across every Pool (pools are
// per-worker, so per-instance counters would be invisible to a scrape).
// Exposed as dtad_pool_* by the service's metrics registry.
var (
	// PoolGets counts Get calls served (hit or miss).
	PoolGets atomic.Int64
	// PoolMisses counts Gets that had to build a fresh machine.
	PoolMisses atomic.Int64
	// PoolPuts counts machines returned to a pool.
	PoolPuts atomic.Int64
	// PoolDrops counts returned machines dropped over the free-list cap.
	PoolDrops atomic.Int64
)

// Pool recycles built machines keyed by configuration so repeated runs
// (parameter sweeps, fuzz campaigns, service workers) amortise machine
// construction — component graphs, local-store arrays, sparse-memory
// pages — instead of rebuilding them per run. Machines are reset on
// acquisition, so a released machine's final state (memory image,
// statistics) stays readable until it is handed out again.
//
// A Pool is NOT safe for concurrent use: it is deliberately a
// per-worker object (one per harness sweep context, dtad worker or
// `dta fuzz` goroutine), which keeps every simulation single-threaded and
// deterministic with zero locking.
type Pool struct {
	free map[Config][]*Machine
}

// DefaultPoolCap bounds the idle machines a pool retains per
// configuration. A sweep worker cycles through a handful of
// configurations with at most a few machines of each in flight, so a
// small cap keeps reuse intact while a long-lived worker (a dtad worker,
// a fuzz worker) cannot accumulate retired machines without bound.
const DefaultPoolCap = 16

// NewPool returns an empty machine pool.
func NewPool() *Pool {
	return &Pool{free: make(map[Config][]*Machine)}
}

// Get returns a machine for cfg ready to run prog: a pooled machine
// reset to the program, or a newly built one when none is available. A
// program Reset refuses, New would refuse too: the machine, untouched,
// stays pooled.
func (p *Pool) Get(cfg Config, prog *program.Program) (*Machine, error) {
	PoolGets.Add(1)
	if p == nil {
		PoolMisses.Add(1)
		return New(cfg, prog)
	}
	if ms := p.free[cfg]; len(ms) > 0 {
		m := ms[len(ms)-1]
		if err := m.Reset(prog); err != nil {
			return nil, err
		}
		p.free[cfg] = ms[:len(ms)-1]
		return m, nil
	}
	PoolMisses.Add(1)
	return New(cfg, prog)
}

// Put returns a machine to the pool. The caller must not use it
// afterwards (its memory image remains valid only until the next Get).
// A machine beyond the per-config cap is dropped for the garbage
// collector instead of retained.
func (p *Pool) Put(m *Machine) {
	if p == nil || m == nil {
		return
	}
	if len(p.free[m.cfg]) >= DefaultPoolCap {
		PoolDrops.Add(1)
		return
	}
	PoolPuts.Add(1)
	p.free[m.cfg] = append(p.free[m.cfg], m)
}

// Idle reports how many machines are retained for cfg (for tests).
func (p *Pool) Idle(cfg Config) int {
	if p == nil {
		return 0
	}
	return len(p.free[cfg])
}
