package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root declares the same names (a test holds the two
// together) and carries the regression bounds.
type metricDef struct {
	name, unit, better string
	// exact marks a count read from the program's public results: for a
	// given seed it must repeat bit for bit, so two commits compare
	// exactly (-compare lists any difference separately).
	exact bool
}

// endToEnd is what a user of the system sees, measured untraced, and
// defined on every workload. One operation is one simulation
// (sim-orig, sim-pf), one experiment (paper-sweep), one seed check
// (fuzz-corpus) or one HTTP request (service-mix).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s_per_pass", unit: "s", better: "lower"},
	{name: "alloc_mb_per_pass", unit: "MB", better: "lower"},
}

// perLayer is printed by the traced run only. A metric a workload does
// not exercise reads 0 there. Layer = package name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: "lower"})
		}
		return out
	}
	count := func(better string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: "count", better: better, exact: true})
		}
		return out
	}
	var m []metricDef

	// Workload-specific user-visible numbers that cannot be end-to-end
	// metrics because those must exist on every workload.
	m = append(m,
		metricDef{name: "host.op_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "host.op_p90_ms", unit: "ms", better: "lower"},
		metricDef{name: "host.guest_minstr_per_s", unit: "M/s", better: "higher"},
		metricDef{name: "service.req_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "service.cold_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.warm_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "model.paper_gap_pct", unit: "%", better: "lower", exact: true},
	)

	// 1. Spans around the benchmark's own calls (medians).
	m = append(m, lower("us", "workloads.build_us", "prefetch.transform_us", "cell.new_us", "cell.reset_us")...)
	m = append(m, lower("ms", "cell.run_ms",
		"cell.run_ms.mmul-orig", "cell.run_ms.mmul-pf", "cell.run_ms.zoom-orig",
		"cell.run_ms.zoom-pf", "cell.run_ms.bitcnt-orig", "cell.run_ms.bitcnt-pf")...)
	m = append(m, lower("us", "asm.format_us", "asm.parse_us")...)
	m = append(m, lower("ms", "snap.encode_ms", "snap.restore_ms")...)
	m = append(m, metricDef{name: "snap.blob_kb", unit: "kB", better: "lower", exact: true})
	m = append(m, lower("ms", "harness.exp_ms.fig6", "harness.exp_ms.fig7", "harness.exp_ms.fig8",
		"harness.exp_ms.lat1", "harness.exp_ms.ablation-memlat", "harness.exp_ms.phase-memlat",
		"harness.exp_ms.synth")...)
	m = append(m, lower("us", "synth.generate_us", "synth.oracle_us", "synth.check_us",
		"service.runkey_us", "service.encode_us")...)
	m = append(m, lower("ns", "service.cache_get_ns", "service.cache_put_ns")...)
	m = append(m, lower("ms", "service.cold_p95_ms", "service.cold_p99_ms", "service.warm_p95_ms")...)

	// 2. Counts read from public results at the same boundaries.
	m = append(m, count("lower", "model.sim_cycles")...)
	m = append(m, count("higher", "spu.guest_instr", "spu.issue_cycles")...)
	m = append(m, metricDef{name: "spu.stall_pct", unit: "%", better: "lower", exact: true})
	m = append(m, count("higher", "spu.pf_blocks")...)
	m = append(m, count("lower", "noc.messages", "noc.busy_cycles", "noc.max_queue",
		"mem.scalar_reads", "mem.block_reads", "mem.port_busy_cycles",
		"mfc.commands", "mfc.bytes", "mfc.queue_full", "mfc.max_queue_depth",
		"dta.threads", "dta.fallocs", "dta.remote_stores", "dta.dse_stall_cycles",
		"harness.runs_executed")...)
	m = append(m,
		metricDef{name: "harness.run_cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
		metricDef{name: "harness.checkpoint_hit_ratio", unit: "ratio", better: "higher", exact: true},
		metricDef{name: "harness.checkpoint_cycles_saved", unit: "count", better: "higher", exact: true},
		metricDef{name: "cell.pool_miss_ratio", unit: "ratio", better: "lower", exact: true},
		metricDef{name: "service.simulations", unit: "count", better: "lower", exact: true},
		metricDef{name: "service.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
		metricDef{name: "service.cache_evictions", unit: "count", better: "lower", exact: true},
		metricDef{name: "host.ns_per_guest_instr", unit: "ns", better: "lower"},
		metricDef{name: "host.ns_per_noc_message", unit: "ns", better: "lower"},
	)

	// 3. Sampled self time of the traced run, by package.
	for _, pkg := range cpuPackages {
		m = append(m, metricDef{name: pkg + ".cpu_s", unit: "s", better: "lower"})
	}
	m = append(m, lower("s", "host.gc_cpu_s", "host.runtime_cpu_s", "host.other_cpu_s", "host.probe_cpu_s")...)
	m = append(m,
		metricDef{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
		metricDef{name: "host.raw_wall_s", unit: "s", better: "lower"},
		metricDef{name: "host.probe_ms", unit: "ms", better: "lower"},
		metricDef{name: "trace.overhead_pct", unit: "%", better: "lower"},
	)

	// The model's error against the paper, one metric per reference row.
	for _, row := range paperRows() {
		m = append(m, metricDef{name: "model.gap." + row.Row, unit: row.gapUnit(), better: "lower", exact: true})
	}
	return m
}
