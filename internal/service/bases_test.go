package service

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/harness"
)

// TestWorkerSharesRunCacheByQuickSeed: one worker's jobs bill
// harness.RunsExecuted exactly as one shared context per (Quick, Seed)
// would — jobs at different latencies and SPE counts share that
// context's run cache — a different Seed starts from a fresh cache, and
// the fifth distinct (Quick, Seed) evicts the coldest one. The fifth
// differs from the evicted first in Quick alone, so a worker that keyed
// its contexts on Seed alone would keep serving the first from cache.
func TestWorkerSharesRunCacheByQuickSeed(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	at := func(seed uint64, latency, spes int) harness.Options {
		return harness.Options{Quick: true, Seed: seed, Latency: latency, SPEs: spes}
	}
	// job submits id to the worker and returns how many simulations it ran.
	job := func(id string, opt harness.Options) int64 {
		t.Helper()
		before := harness.RunsExecuted.Load()
		j, err := s.Submit(id, opt)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if j.State != JobDone || j.CacheHit {
			t.Fatalf("%s %+v: state=%s cache_hit=%v err=%s", id, opt, j.State, j.CacheHit, j.Err)
		}
		return harness.RunsExecuted.Load() - before
	}

	steps := []struct {
		id  string
		opt harness.Options
	}{
		{"fig5a", at(7, 150, 8)},
		{"fig5b", at(7, 100, 4)},
		{"mmul-orig", at(7, 150, 8)}, // one of fig5a's runs
		{"mmul-pf", at(7, 100, 4)},   // one of fig5b's runs
	}
	shared := harness.NewContext(steps[0].opt)
	var want []int64
	for _, st := range steps {
		w := executedOn(t, shared.Sub(st.opt), st.id)
		if got := job(st.id, st.opt); got != w {
			t.Fatalf("%s %+v: worker ran %d simulations, one shared context %d", st.id, st.opt, got, w)
		}
		want = append(want, w)
	}
	if want[0] == 0 || want[1] == 0 || want[2] != 0 || want[3] != 0 {
		t.Fatalf("reference billed %v: the sequence does not exercise sharing", want)
	}

	// A different Seed gets a fresh cache.
	if got, w := job("fig5a", at(8, 150, 8)), executedOn(t, harness.NewContext(at(8, 150, 8)), "fig5a"); got != w {
		t.Fatalf("fig5a at a new seed: worker ran %d simulations, a fresh context %d", got, w)
	}

	// Seeds 9 and 10 fill the worker's four contexts (table2 simulates
	// nothing); the fifth, seed 7 at full size, evicts the coldest: the
	// quick seed-7 context.
	job("table2", at(9, 150, 8))
	job("table2", at(10, 150, 8))
	full := at(7, 150, 8)
	full.Quick = false
	job("table2", full)
	if got := job("zoom-orig", at(8, 150, 8)); got != 0 {
		t.Fatalf("zoom-orig at seed 8: %d simulations, want 0 (served from the warm seed-8 cache)", got)
	}
	if got, w := job("zoom-orig", at(7, 150, 8)), executedOn(t, harness.NewContext(at(7, 150, 8)), "zoom-orig"); got != w || w == 0 {
		t.Fatalf("zoom-orig at quick seed 7: worker ran %d simulations, a fresh context %d (evicted cache)", got, w)
	}
}

// TestWorkerPoolSharedAcrossSeeds: a worker's machine pool belongs to
// the worker, not to a (Quick, Seed) state — a machine's shape does not
// depend on the seed — so three jobs with three never-seen seeds on one
// worker build one machine between them, not one each.
func TestWorkerPoolSharedAcrossSeeds(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	misses := cell.PoolMisses.Load()
	for seed := uint64(1); seed <= 3; seed++ {
		job, err := s.Submit("mmul-pf", harness.Options{Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		if job.State != JobDone {
			t.Fatalf("seed %d: job = %s (%s)", seed, job.State, job.Err)
		}
	}
	if got := cell.PoolMisses.Load() - misses; got != 1 {
		t.Fatalf("three seeds on one worker built %d machines, want 1", got)
	}
}

// executedOn runs experiment id on ctx and returns how many simulations
// it computed, as billed by harness.RunsExecuted.
func executedOn(t *testing.T, ctx *harness.Context, id string) int64 {
	t.Helper()
	exp, ok := harness.ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	before := harness.RunsExecuted.Load()
	if r := harness.RunOn(ctx, exp); r.Err != nil {
		t.Fatalf("%s: %v", id, r.Err)
	}
	return harness.RunsExecuted.Load() - before
}

func newTestBases() *bases {
	return newBases(cell.NewPool(), harness.NewCheckpointCache())
}

// probe asks ctx's caches for the one simulation of mmul-pf at quick
// defaults, through a Sub at those options, and returns how many
// simulations that computed: 0 if ctx shares a cache that already
// holds it.
func probe(t *testing.T, ctx *harness.Context) int64 {
	t.Helper()
	return executedOn(t, ctx.Sub(harness.Options{Quick: true}), "mmul-pf")
}

// TestStateRegistrySharing: jobs agreeing on Quick/Seed run on one
// base's caches, whatever their latency and SPE count; any disagreement
// in Quick or Seed gets a distinct base.
func TestStateRegistrySharing(t *testing.T) {
	b := newTestBases()
	if n := probe(t, b.context(harness.Options{Quick: true})); n != 1 {
		t.Fatalf("first probe computed %d simulations, want 1", n)
	}
	if n := probe(t, b.context(harness.Options{Quick: true, SPEs: 4, Latency: 500})); n != 0 {
		t.Fatal("same Quick/Seed: caches not shared")
	}
	if n := probe(t, b.context(harness.Options{Quick: false})); n != 1 {
		t.Fatal("different Quick: caches shared")
	}
	if n := probe(t, b.context(harness.Options{Quick: true, Seed: 7})); n != 1 {
		t.Fatal("different Seed: caches shared")
	}
}

// TestStateRegistryRefcountAndIdle: a base outlives the job that built
// it and is rejoined warm while it is among the baseCap most recently
// used, a rejoin refreshing its recency; once baseCap other keys have
// been used since, it is evicted and the next job of its key starts
// from a fresh cache.
func TestStateRegistryRefcountAndIdle(t *testing.T) {
	b := newTestBases()
	opt := harness.Options{Quick: true}
	if n := probe(t, b.context(opt)); n != 1 {
		t.Fatalf("first probe computed %d simulations, want 1", n)
	}
	for i := 0; i < baseCap-1; i++ {
		b.context(harness.Options{Quick: true, Seed: uint64(100 + i)})
	}
	if n := probe(t, b.context(opt)); n != 0 {
		t.Fatal("base not rejoined warm within the cap")
	}
	// Rejoining made it the most recently used: a new key evicts another.
	b.context(harness.Options{Quick: true, Seed: 300})
	if n := probe(t, b.context(opt)); n != 0 {
		t.Fatal("rejoining a base did not refresh its recency")
	}
	for i := 0; i < baseCap; i++ {
		b.context(harness.Options{Quick: true, Seed: uint64(200 + i)})
	}
	if n := probe(t, b.context(opt)); n != 1 {
		t.Fatal("evicted base still served")
	}
}

// TestStateRegistryConcurrentRefs: two contexts of one key held at the
// same time share one cache, and a context handed out keeps its base's
// caches after the base is evicted: eviction only stops new jobs from
// joining it.
func TestStateRegistryConcurrentRefs(t *testing.T) {
	b := newTestBases()
	opt := harness.Options{Quick: true}
	first, second := b.context(opt), b.context(opt)
	if n := probe(t, first); n != 1 {
		t.Fatalf("first probe computed %d simulations, want 1", n)
	}
	if n := probe(t, second); n != 0 {
		t.Fatal("overlapping contexts of one key do not share a cache")
	}
	for i := 0; i < baseCap; i++ {
		b.context(harness.Options{Quick: true, Seed: uint64(200 + i)})
	}
	if n := probe(t, first); n != 0 {
		t.Fatal("a held context lost its cache to eviction")
	}
	if n := probe(t, b.context(opt)); n != 1 {
		t.Fatal("evicted base still served to a new job")
	}
}
