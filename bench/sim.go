package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	celldta "repro"
	"repro/internal/asm"
	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// simCase is one simulation of a sim-* pass.
type simCase struct {
	label string // experiment-style name with the SPE count: "mmul-orig@8"
	cfg   cell.Config
	prog  *celldta.Program
}

// simRunner is sim-orig and sim-pf: one pass simulates mmul(32) and
// zoom(32) at 1, 2, 4 and 8 SPEs plus bitcnt(10000) at 8 SPEs, memory
// latency 150, from pre-built programs on machines of one cell.Pool.
type simRunner struct {
	prefetch bool
	cases    []simCase
	pool     *cell.Pool
	results  []*cell.Result // of the pass just run
	first    []string       // digest of each case's result in the warm-up pass

	pool0, pool1 poolCounters // around pass 1
}

// poolCounters snapshots cell's process-wide machine-pool counters.
type poolCounters struct{ gets, misses int64 }

func readPoolCounters() poolCounters {
	return poolCounters{gets: cell.PoolGets.Load(), misses: cell.PoolMisses.Load()}
}

// missRatio is the share of the Gets between two snapshots that had to
// build a machine; 0 when there were none.
func (a poolCounters) missRatio(b poolCounters) float64 {
	if b.gets == a.gets {
		return 0
	}
	return float64(b.misses-a.misses) / float64(b.gets-a.gets)
}

func (r *simRunner) variant() string {
	if r.prefetch {
		return "pf"
	}
	return "orig"
}

func (r *simRunner) setup(e *env) error {
	type size struct {
		bench string
		n     int
		spes  []int
	}
	for _, s := range []size{
		{"mmul", 32, []int{1, 2, 4, 8}},
		{"zoom", 32, []int{1, 2, 4, 8}},
		{"bitcnt", 10000, []int{8}},
	} {
		w, ok := workloads.Get(s.bench)
		if !ok {
			return fmt.Errorf("workload %q is not registered", s.bench)
		}
		for _, spes := range s.spes {
			p := workloads.Params{N: s.n, Seed: e.seed}
			if s.bench != "bitcnt" { // bitcnt's chunking is fixed by the workload
				p.Workers = workloads.AutoWorkers(spes, 32)
			}
			var prog *celldta.Program
			var err error
			e.tr.do("workloads.build", e.passSpan, 0, func() { prog, err = w.Build(p) })
			if err != nil {
				return fmt.Errorf("build %s: %w", s.bench, err)
			}
			if r.prefetch {
				e.tr.do("prefetch.transform", e.passSpan, 0, func() { prog, err = prefetch.Transform(prog) })
				if err != nil {
					return fmt.Errorf("transform %s: %w", s.bench, err)
				}
			}
			cfg := cell.DefaultConfig()
			cfg.SPEs = spes
			cfg.Mem.Latency = 150
			r.cases = append(r.cases, simCase{
				label: fmt.Sprintf("%s-%s@%d", s.bench, r.variant(), spes), cfg: cfg, prog: prog,
			})
		}
	}
	r.pool = cell.NewPool()
	r.pass(e, 0)
	r.verify(e, 0)
	return nil
}

func (r *simRunner) pass(e *env, k int) {
	if k == 1 {
		r.pool0 = readPoolCounters()
	}
	r.results = r.results[:0]
	for _, c := range r.cases {
		e.probeIfDue()
		start := time.Now()
		misses := cell.PoolMisses.Load()
		m, err := r.pool.Get(c.cfg, c.prog)
		got := time.Since(start)
		if err != nil {
			e.op(got, fmt.Errorf("%s: %w", c.label, err))
			r.results = append(r.results, nil)
			continue
		}
		if cell.PoolMisses.Load() != misses {
			e.tr.add("cell.new", e.passSpan, int64(k), 0, start, got)
		} else {
			e.tr.add("cell.reset", e.passSpan, int64(k), 0, start, got)
		}
		sp := e.tr.begin("cell.run."+c.label, e.passSpan, int64(k))
		res, err := m.Run()
		e.tr.end(sp)
		d := time.Since(start)
		if err == nil && res.CheckErr != nil {
			err = fmt.Errorf("functional check: %w", res.CheckErr)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", c.label, err)
		}
		e.op(d, err)
		r.pool.Put(m) // the result holds copies of every statistic
		r.results = append(r.results, res)
	}
	if k == 1 {
		r.pool1 = readPoolCounters()
	}
}

// resultDigest hashes every number a run reports.
func resultDigest(res *cell.Result) string {
	if res == nil {
		return "none"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d %v %+v %+v %+v %+v %+v %+v", res.Cycles, res.Tokens,
		res.SPUs, res.LSEs, res.MFCs, res.DSEs, res.Mem, res.Net)
	return hex.EncodeToString(h.Sum(nil))
}

func (r *simRunner) verify(e *env, k int) {
	for i, res := range r.results {
		d := resultDigest(res)
		switch {
		case k == 0:
			r.first = append(r.first, d)
		case d != r.first[i]:
			e.fail(fmt.Errorf("%s: pass %d differs from the first pass", r.cases[i].label, k))
		}
	}
}

func (r *simRunner) finish(e *env, layer map[string]float64) string {
	h := sha256.New()
	for i, d := range r.first {
		fmt.Fprintf(h, "%s %s\n", r.cases[i].label, d)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if e.tr == nil {
		return digest
	}

	// Counts: one pass's simulations summed (the last pass; verify has
	// shown it equal to the first).
	var agg stats.SPU
	var maxNoc, maxMFC int
	for _, res := range r.results {
		if res == nil {
			continue
		}
		agg.Merge(res.Agg)
		layer["model.sim_cycles"] += float64(res.Cycles)
		layer["noc.messages"] += float64(res.Net.Messages)
		layer["noc.busy_cycles"] += float64(res.Net.BusyCycles)
		maxNoc = max(maxNoc, res.Net.MaxQueue)
		layer["mem.scalar_reads"] += float64(res.Mem.ScalarReads)
		layer["mem.block_reads"] += float64(res.Mem.BlockReads)
		layer["mem.port_busy_cycles"] += float64(res.Mem.PortBusy)
		for _, s := range res.MFCs {
			layer["mfc.commands"] += float64(s.Gets + s.Puts)
			layer["mfc.bytes"] += float64(s.BytesIn + s.BytesOut)
			layer["mfc.queue_full"] += float64(s.QueueFull)
			maxMFC = max(maxMFC, s.MaxQueueDepth)
		}
		for _, s := range res.LSEs {
			layer["dta.fallocs"] += float64(s.Fallocs)
			layer["dta.remote_stores"] += float64(s.RemoteStores)
		}
		for _, s := range res.DSEs {
			layer["dta.dse_stall_cycles"] += float64(s.StallsAll)
		}
	}
	layer["spu.guest_instr"] = float64(agg.Instr.Total)
	layer["spu.issue_cycles"] = float64(agg.Causes[stats.CauseIssue])
	layer["spu.stall_pct"] = agg.Breakdown.StallPct()
	layer["spu.pf_blocks"] = float64(agg.PFBlocks)
	layer["dta.threads"] = float64(agg.Threads)
	layer["noc.max_queue"] = float64(maxNoc)
	layer["mfc.max_queue_depth"] = float64(maxMFC)
	layer["cell.pool_miss_ratio"] = r.pool0.missRatio(r.pool1)

	// Spans.
	us, ms := time.Microsecond, time.Millisecond
	layer["workloads.build_us"] = e.tr.medianOf("workloads.build", us)
	layer["prefetch.transform_us"] = e.tr.medianOf("prefetch.transform", us)
	layer["cell.new_us"] = e.tr.medianOf("cell.new", us)
	layer["cell.reset_us"] = e.tr.medianOf("cell.reset", us)
	layer["cell.run_ms"] = e.tr.medianOf("cell.run.", ms)
	for _, bench := range []string{"mmul", "zoom", "bitcnt"} {
		name := bench + "-" + r.variant()
		layer["cell.run_ms."+name] = e.tr.medianOf("cell.run."+name+"@8", ms)
	}

	r.probeAsm(e)
	layer["asm.format_us"] = e.tr.medianOf("asm.format", us)
	layer["asm.parse_us"] = e.tr.medianOf("asm.parse", us)
	layer["snap.blob_kb"] = r.probeSnapshots(e)
	layer["snap.encode_ms"] = e.tr.medianOf("snap.encode", ms)
	layer["snap.restore_ms"] = e.tr.medianOf("snap.restore", ms)
	return digest
}

// probeAsm round-trips every built program through the assembler text
// format and checks that the program that comes back is the same one.
func (r *simRunner) probeAsm(e *env) {
	for _, c := range r.cases {
		var text string
		e.tr.do("asm.format", e.passSpan, 0, func() { text = asm.Format(c.prog) })
		var back *celldta.Program
		var err error
		e.tr.do("asm.parse", e.passSpan, 0, func() { back, err = asm.Parse(text) })
		if err == nil && asm.Format(back) != text {
			err = fmt.Errorf("the parsed program formats differently")
		}
		if err != nil {
			e.fail(fmt.Errorf("%s: asm round trip: %w", c.label, err))
		}
	}
}

// probeSnapshots captures the 8-SPE mmul and bitcnt runs halfway,
// restores each blob into a pooled machine, finishes the run and checks
// that it reports what the uninterrupted run reported. It returns the
// median blob size in kB.
func (r *simRunner) probeSnapshots(e *env) float64 {
	var kb []float64
	for i, c := range r.cases {
		if c.label != "mmul-"+r.variant()+"@8" && c.label != "bitcnt-"+r.variant()+"@8" {
			continue
		}
		size, err := r.snapshotRoundTrip(e, c, r.results[i])
		if err != nil {
			e.fail(fmt.Errorf("%s: snapshot: %w", c.label, err))
			continue
		}
		kb = append(kb, size)
	}
	return median(kb)
}

func (r *simRunner) snapshotRoundTrip(e *env, c simCase, want *cell.Result) (kb float64, err error) {
	if want == nil {
		return 0, fmt.Errorf("no uninterrupted run to compare with")
	}
	donor, err := r.pool.Get(c.cfg, c.prog)
	if err != nil {
		return 0, err
	}
	if _, st, err := donor.RunTo(want.Cycles / 2); err != nil {
		return 0, err
	} else if st == cell.StepDone {
		return 0, fmt.Errorf("the run ended before its halfway cycle")
	}
	key := "bench:" + c.label
	var blob []byte
	e.tr.do("snap.encode", e.passSpan, 0, func() { blob, err = donor.EncodeSnapshot(key) })
	if err != nil {
		return 0, err
	}
	r.pool.Put(donor)
	m, err := r.pool.Get(c.cfg, c.prog)
	if err != nil {
		return 0, err
	}
	e.tr.do("snap.restore", e.passSpan, 0, func() { err = m.RestoreSnapshot(blob, key) })
	if err != nil {
		return 0, err
	}
	got, err := m.Run()
	if err != nil {
		return 0, err
	}
	r.pool.Put(m)
	if resultDigest(got) != resultDigest(want) {
		return 0, fmt.Errorf("the restored run differs from the uninterrupted run")
	}
	return float64(len(blob)) / 1e3, nil
}
