package service

import (
	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/lru"
)

// baseCap bounds the base contexts a worker keeps. A base holds the
// compiled programs and every result its jobs computed, so the cap
// trades memory for the chance that the next job rejoins a warm cache;
// sweeps target one operating point at a time, so a few cover the
// realistic churn.
const baseCap = 4

// baseKey is the Options fields that shape programs. Every Options
// field is folded into each simulation's run key, so any jobs could
// share one base; splitting the bases by Quick and Seed only bounds
// memory, since evicting a base drops its programs and results together.
type baseKey struct {
	quick bool
	seed  uint64
}

// bases is one worker's base contexts in recency order. The machine
// pool and checkpoint cache are the worker's and every base shares them:
// a machine's shape and a snapshot's key never depend on Quick or Seed.
// Confined to the worker's goroutine, like the contexts.
type bases struct {
	pool  *cell.Pool
	ckpts *harness.CheckpointCache
	lru   *lru.Cache[baseKey, *harness.Context]
}

func newBases(pool *cell.Pool, ckpts *harness.CheckpointCache) *bases {
	return &bases{pool: pool, ckpts: ckpts, lru: lru.New[baseKey, *harness.Context](baseCap, nil, nil)}
}

// context returns the context a job with options opt runs on: a Sub of
// the base for opt's (Quick, Seed), built on first use with the coldest
// base evicted beyond baseCap. A Sub shares its base's caches and, like
// every context of a pool-sharing worker, runs its simulations on the
// caller's goroutine.
func (b *bases) context(opt harness.Options) *harness.Context {
	opt = opt.WithDefaults()
	k := baseKey{opt.Quick, opt.Seed}
	ctx, ok := b.lru.Get(k)
	if !ok {
		ctx = harness.NewContextWithPool(opt, b.pool)
		ctx.SetCheckpointCache(b.ckpts)
		b.lru.Put(k, ctx)
	}
	return ctx.Sub(opt)
}
