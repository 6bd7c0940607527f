package harness

import (
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
	// instead of simulating the warm-up prefix.
	CheckpointHits atomic.Int64
	// CheckpointMisses counts fork requests that had to simulate the
	// prefix cold (and then captured it for the next variant).
	CheckpointMisses atomic.Int64
	// CheckpointEvictions counts snapshots dropped from memory under
	// the byte cap.
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

// CheckpointCache holds encoded machine snapshots keyed by
// cell.SnapshotKey, evicting least-recently-used entries beyond
// DefaultCheckpointCacheBytes; the entry just stored is never evicted,
// even when it alone exceeds the cap. Like the run cache it is confined
// to one worker — no locking — and a context shares it with its Sub
// contexts.
type CheckpointCache struct {
	blobs *lru.Cache[string, []byte]
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

// Get returns the snapshot stored under key and bills the process
// hit/miss counters.
func (cc *CheckpointCache) Get(key string) ([]byte, bool) {
	if cc == nil {
		CheckpointMisses.Add(1)
		return nil, false
	}
	if blob, ok := cc.blobs.Get(key); ok {
		CheckpointHits.Add(1)
		return blob, true
	}
	CheckpointMisses.Add(1)
	return nil, false
}

// Put stores a snapshot under key, evicts the coldest entries beyond
// the byte cap and moves the bytes gauge by what both changed.
func (cc *CheckpointCache) Put(key string, blob []byte) {
	if cc == nil {
		return
	}
	before := cc.blobs.Cost()
	cc.blobs.Put(key, blob)
	CheckpointBytes.Add(cc.blobs.Cost() - before)
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

// phase is a mid-run change of the machine's knobs: the machine runs
// its configuration up to the first event boundary at or beyond div
// (see cell.Machine.RunTo), then continues with knobs applied. A run
// that completes before div finishes un-knobbed, exactly as a cold run
// would.
type phase struct {
	knobs cell.Knobs
	div   sim.Cycle
}

// phaseSpec declares a prefetching run of bench on c's machine with
// spes SPEs whose knobs change at div. Sibling runs that differ only in
// knobs share the warm-up prefix through the checkpoint cache, and a
// forked run is byte-identical to a cold one applying the knobs at the
// same boundary (see cell.TestKnobDivergence).
func (c *Context) phaseSpec(bench string, spes int, knobs cell.Knobs, div sim.Cycle) runSpec {
	s := c.spec(bench, spes, true)
	s.phase = phase{knobs, div}
	return s
}

// forkRun is one phase run's checkpoint traffic: runAll reads the cache
// in step 1, step 3 restores or captures the prefix, and step 4
// writes back — so only the calling goroutine touches the cache.
type forkRun struct {
	phase
	key      string // the prefix's cell.SnapshotKey; "" without a checkpoint cache
	cached   []byte // the prefix snapshot step 1 found, if any
	captured []byte // the prefix snapshot step 3 took, for step 4 to cache
	drop     bool   // the cached snapshot failed to restore
	saved    sim.Cycle
}

// run takes m, readied for prog, through the prefix — restored from the
// cached snapshot, or simulated and captured — and on with the knobs.
func (f *forkRun) run(m *cell.Machine, prog *program.Program) (*cell.Result, error) {
	if f.cached != nil {
		if err := m.RestoreSnapshot(f.cached, f.key); err == nil {
			f.saved = m.Now()
			m.ApplyKnobs(f.knobs)
			return m.Run()
		}
		// A blob that fails to restore is poison: step 4 drops it, and
		// the half-written machine is recovered for the cold path.
		f.drop = true
		if err := m.Reset(prog); err != nil {
			return nil, err
		}
	}
	_, st, err := m.RunTo(f.div)
	if err != nil {
		return nil, err
	}
	if st == cell.StepDone {
		return m.Finish()
	}
	if f.key != "" {
		if blob, err := m.EncodeSnapshot(f.key); err == nil {
			f.captured = blob
		}
	}
	m.ApplyKnobs(f.knobs)
	return m.Run()
}

// settle writes the run's checkpoint traffic back to cc.
func (f *forkRun) settle(cc *CheckpointCache) {
	if f.drop {
		cc.Drop(f.key)
	}
	if f.captured != nil {
		cc.Put(f.key, f.captured)
	}
	CheckpointCyclesSaved.Add(int64(f.saved))
}
