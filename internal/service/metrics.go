package service

import (
	"time"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// buildRegistry assembles the process metrics registry served at
// GET /metrics. Counters owned by other packages (cell.Pool, harness
// run and checkpoint caches) are process-wide atomics read at scrape time;
// service-level state is read through the usual accessors. Per-endpoint
// latency histograms are registered lazily by the HTTP middleware.
func (s *Service) buildRegistry() {
	reg := obs.NewRegistry()
	s.reg = reg

	reg.GaugeFunc("dtad_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("dtad_workers",
		"Configured simulation worker count.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("dtad_busy_workers",
		"Jobs currently inside a simulation (at most one per worker).",
		func() float64 { return float64(s.busyWorkers.Load()) })
	reg.GaugeFunc("dtad_queue_depth",
		"Jobs waiting for a worker.",
		func() float64 { return float64(s.QueueLen()) })
	reg.GaugeFunc("dtad_queue_capacity",
		"Maximum jobs the queue can hold.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.CounterFunc("dtad_simulations_total",
		"Simulations actually executed (cache-served submissions excluded).",
		func() float64 { return float64(s.simulated.Load()) })
	reg.CounterFunc("dtad_sim_cycles_total",
		"Cumulative simulated cycles across all executed jobs.",
		func() float64 { return float64(s.simCycles.Load()) })

	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		reg.GaugeFunc("dtad_jobs",
			"Jobs in the retention table by state.",
			func() float64 { return float64(s.countJobs(st)) },
			obs.Label{Name: "state", Value: string(st)})
	}

	reg.CounterFunc("dtad_cache_hits_total",
		"Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("dtad_cache_misses_total",
		"Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("dtad_cache_evictions_total",
		"Result-cache LRU evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("dtad_cache_entries",
		"Result documents currently cached.",
		func() float64 { return float64(s.cache.Stats().Len) })
	reg.GaugeFunc("dtad_cache_capacity",
		"Maximum result documents the cache holds.",
		func() float64 { return float64(s.cache.Stats().Cap) })

	reg.CounterFunc("dtad_pool_gets_total",
		"Machine pool Get calls across every worker pool.",
		func() float64 { return float64(cell.PoolGets.Load()) })
	reg.CounterFunc("dtad_pool_misses_total",
		"Machine pool Gets that had to build a fresh machine.",
		func() float64 { return float64(cell.PoolMisses.Load()) })
	reg.CounterFunc("dtad_pool_puts_total",
		"Machines retained by a pool for reuse.",
		func() float64 { return float64(cell.PoolPuts.Load()) })
	reg.CounterFunc("dtad_pool_drops_total",
		"Machines dropped at Put because the pool was full.",
		func() float64 { return float64(cell.PoolDrops.Load()) })

	reg.CounterFunc("dtad_harness_runs_total",
		"Simulations executed by harness contexts (run-cache misses).",
		func() float64 { return float64(harness.RunsExecuted.Load()) })
	reg.CounterFunc("dtad_harness_run_cache_hits_total",
		"Harness run-cache hits (memoised simulations).",
		func() float64 { return float64(harness.RunCacheHits.Load()) })

	reg.CounterFunc("dtad_checkpoint_hits_total",
		"Forked runs seeded from a cached warm-up snapshot.",
		func() float64 { return float64(harness.CheckpointHits.Load()) })
	reg.CounterFunc("dtad_checkpoint_misses_total",
		"Fork requests that simulated their warm-up prefix cold.",
		func() float64 { return float64(harness.CheckpointMisses.Load()) })
	reg.CounterFunc("dtad_checkpoint_evictions_total",
		"Snapshots dropped from in-memory checkpoint caches under the byte cap.",
		func() float64 { return float64(harness.CheckpointEvictions.Load()) })
	reg.GaugeFunc("dtad_checkpoint_bytes",
		"Snapshot bytes resident in in-memory checkpoint caches.",
		func() float64 { return float64(harness.CheckpointBytes.Load()) })
	reg.CounterFunc("dtad_checkpoint_cycles_saved_total",
		"Simulated cycles skipped by restoring snapshots instead of re-running warm-up prefixes.",
		func() float64 { return float64(harness.CheckpointCyclesSaved.Load()) })

	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		c := c
		reg.CounterFunc("dtad_sim_stall_cycles_total",
			"Cumulative simulated SPU cycles by stall cause (same accounting as dtad_sim_cycles_total).",
			func() float64 { return float64(harness.CauseCycles[c].Load()) },
			obs.Label{Name: "cause", Value: c.Slug()},
			obs.Label{Name: "bucket", Value: c.Bucket().String()})
	}

	s.httpMetrics = make(map[string]*routeMetrics, len(routePatterns)+1)
	for _, p := range append([]string{""}, routePatterns...) {
		label := p
		if label == "" {
			label = "other"
		}
		s.httpMetrics[p] = &routeMetrics{
			reqs: reg.Counter("dtad_http_requests_total",
				"HTTP requests served, by mux route.",
				obs.Label{Name: "path", Value: label}),
			seconds: reg.Histogram("dtad_http_request_seconds",
				"HTTP request latency in seconds, by mux route.", nil,
				obs.Label{Name: "path", Value: label}),
		}
	}
}

// routeMetrics is the per-route series pair used by the HTTP middleware.
type routeMetrics struct {
	reqs    *obs.Counter
	seconds *obs.Histogram
}

// countJobs counts retained jobs in one state.
func (s *Service) countJobs(st JobState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == st {
			n++
		}
	}
	return n
}

// Registry exposes the metrics registry (for the /metrics route and
// tests).
func (s *Service) Registry() *obs.Registry { return s.reg }
