package harness

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/lru"
	"repro/internal/program"
	"repro/internal/sim"
)

// Process-wide checkpoint counters, aggregated across every
// CheckpointCache (caches are per-worker like the run cache, so
// per-instance counters cannot be scraped). Exposed as
// dtad_checkpoint_* by the service's metrics registry.
var (
	// CheckpointHits counts forked runs seeded from a cached snapshot
	// (in-memory or spill) instead of simulating the warm-up prefix.
	CheckpointHits atomic.Int64
	// CheckpointMisses counts fork requests that had to simulate the
	// prefix cold (and then captured it for the next variant).
	CheckpointMisses atomic.Int64
	// CheckpointEvictions counts snapshots dropped from memory under
	// the byte cap (spilled copies, if any, survive).
	CheckpointEvictions atomic.Int64
	// CheckpointBytes gauges the snapshot bytes currently resident in
	// memory across all caches.
	CheckpointBytes atomic.Int64
	// CheckpointCyclesSaved accumulates the simulated cycles restores
	// skipped — each hit bills the cycle the snapshot was captured at.
	CheckpointCyclesSaved atomic.Int64
)

// DefaultCheckpointCacheBytes bounds the in-memory snapshot bytes a
// cache retains. A machine snapshot is dominated by the touched
// local-store and sparse-memory pages — hundreds of kB to a
// few MB for the paper's workloads — so this holds the warm-up
// prefixes of a full sweep with room to spare.
const DefaultCheckpointCacheBytes = 256 << 20

// CheckpointSpill is an optional second level under a CheckpointCache:
// Put writes through to it and a memory miss consults it, so snapshots
// survive process restarts (the dtad service provides a disk-backed
// implementation). Implementations must tolerate concurrent use —
// unlike the in-memory cache, one spill is typically shared by every
// worker in the process.
type CheckpointSpill interface {
	// Load returns the blob stored under key, if present.
	Load(key string) ([]byte, bool)
	// Store persists blob under key (best effort; errors are the
	// implementation's to swallow or log).
	Store(key string, blob []byte)
}

// CheckpointCache holds encoded machine snapshots keyed by
// cell.SnapshotKey, evicting least-recently-used entries beyond
// DefaultCheckpointCacheBytes; the entry just stored is never evicted,
// even when it alone exceeds the cap. Like the run cache it is confined
// to one worker — no locking — and a context shares it with its Sub
// contexts.
type CheckpointCache struct {
	blobs *lru.Cache[string, []byte]
	spill CheckpointSpill
}

// NewCheckpointCache returns an empty cache.
func NewCheckpointCache() *CheckpointCache {
	return newCheckpointCache(DefaultCheckpointCacheBytes)
}

func newCheckpointCache(capBytes int64) *CheckpointCache {
	size := func(blob []byte) int64 { return int64(len(blob)) }
	evicted := func(string, []byte) { CheckpointEvictions.Add(1) }
	return &CheckpointCache{blobs: lru.New(capBytes, size, evicted)}
}

// SetSpill attaches a second-level store: Put writes through to it and
// a memory miss consults it before reporting a miss.
func (cc *CheckpointCache) SetSpill(s CheckpointSpill) { cc.spill = s }

// Get returns the snapshot stored under key, consulting the spill on a
// memory miss, and bills the process hit/miss counters.
func (cc *CheckpointCache) Get(key string) ([]byte, bool) {
	if cc == nil {
		CheckpointMisses.Add(1)
		return nil, false
	}
	if blob, ok := cc.blobs.Get(key); ok {
		CheckpointHits.Add(1)
		return blob, true
	}
	if cc.spill != nil {
		if blob, ok := cc.spill.Load(key); ok {
			cc.insert(key, blob)
			CheckpointHits.Add(1)
			return blob, true
		}
	}
	CheckpointMisses.Add(1)
	return nil, false
}

// Put stores a snapshot under key, writes it through to the spill and
// evicts the coldest entries beyond the byte cap.
func (cc *CheckpointCache) Put(key string, blob []byte) {
	if cc == nil {
		return
	}
	cc.insert(key, blob)
	if cc.spill != nil {
		cc.spill.Store(key, blob)
	}
}

// Drop removes key without counting an eviction (used when a cached
// blob fails to restore, so it is never served again).
func (cc *CheckpointCache) Drop(key string) {
	if cc == nil {
		return
	}
	if blob, ok := cc.blobs.Remove(key); ok {
		CheckpointBytes.Add(-int64(len(blob)))
	}
}

// Len reports the resident entry count.
func (cc *CheckpointCache) Len() int {
	if cc == nil {
		return 0
	}
	return cc.blobs.Len()
}

// Bytes reports this cache's resident snapshot bytes.
func (cc *CheckpointCache) Bytes() int64 {
	if cc == nil {
		return 0
	}
	return cc.blobs.Cost()
}

// insert stores blob as the most recent entry and moves the bytes gauge
// by what the store and any evictions changed.
func (cc *CheckpointCache) insert(key string, blob []byte) {
	before := cc.blobs.Cost()
	cc.blobs.Put(key, blob)
	CheckpointBytes.Add(cc.blobs.Cost() - before)
}

// fork executes prog with knobs taking effect at the first event
// boundary at or beyond div, sharing the warm-up prefix across calls:
// the prefix state is served from the checkpoint cache when a sibling
// variant (same cfg, program and divergence cycle) already simulated
// it, and simulated once then captured otherwise. Forked runs are
// byte-identical to running cold and applying the knobs at the same
// boundary (see cell.TestKnobDivergence); a run that completes before
// div finishes un-knobbed, exactly as a cold run would.
//
// Recording and profiling are not supported on this path — snapshot
// capture refuses recording machines, and the pre-divergence
// prefix of a restored run was never executed here, so there would be
// nothing faithful to record.
func (c *Context) fork(prog *program.Program, spes int, knobs cell.Knobs, div sim.Cycle) (*cell.Result, error) {
	cfg := c.machineConfig(spes, defaultVariant())
	m, err := c.pool.Get(cfg, prog)
	if err != nil {
		return nil, err
	}
	useCkpt := c.ckpts != nil
	restored := false
	var key string
	if useCkpt {
		key = cell.SnapshotKey(cfg, prog, div)
		if blob, ok := c.ckpts.Get(key); ok {
			if rerr := m.RestoreSnapshot(blob, key); rerr == nil {
				CheckpointCyclesSaved.Add(int64(m.Now()))
				restored = true
			} else {
				// A blob that fails to restore is poison: drop it and
				// recover the half-written machine for the cold path.
				c.ckpts.Drop(key)
				if err := m.Reset(prog); err != nil {
					return nil, err
				}
			}
		}
	}
	st := cell.StepBudget
	if !restored {
		// The capture point is the first natural event boundary at or
		// beyond div (see cell.Machine.RunTo).
		_, st, err = m.RunTo(div)
		if err != nil {
			return nil, err
		}
		if useCkpt && st != cell.StepDone {
			if blob, err := m.EncodeSnapshot(key); err == nil {
				c.ckpts.Put(key, blob)
			}
		}
	}
	var res *cell.Result
	if st == cell.StepDone {
		res, err = m.Finish()
	} else {
		m.ApplyKnobs(knobs)
		res, err = m.Run()
	}
	if err != nil {
		return nil, err
	}
	// Safe to release even when knobbed: Reset restores the
	// construction-time latencies before the machine is reused.
	c.pool.Put(m)
	if res.CheckErr != nil {
		return nil, fmt.Errorf("functional check: %w", res.CheckErr)
	}
	return res, nil
}

// runPhase executes (with run-cache memoisation) one benchmark whose
// memory/DMA parameters change mid-run: the machine runs the paper
// configuration up to divergence cycle div, then continues with knobs
// applied. Sibling calls that differ only in knobs share the warm-up
// prefix through the checkpoint cache.
func (c *Context) runPhase(bench string, spes int, knobs cell.Knobs, div sim.Cycle) (*cell.Result, error) {
	key := runKey{bench, spes, c.Opt.Latency, true, 0, -1, 0, false, 0, true,
		knobs.MemLatency, knobs.MFCCmdLatency, int64(div)}
	return c.memoRun(key, func() (*cell.Result, error) {
		prog, err := c.buildProgram(bench, spes, true, true)
		if err != nil {
			return nil, err
		}
		res, err := c.fork(prog, spes, knobs, div)
		if err != nil {
			return nil, fmt.Errorf("%s spes=%d phase@%d: %w", bench, spes, div, err)
		}
		return res, nil
	})
}
