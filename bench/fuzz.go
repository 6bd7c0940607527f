package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	celldta "repro"
	"repro/internal/cell"
	"repro/internal/synth"
)

// fuzzSeeds is how many consecutive generator seeds one pass checks.
const fuzzSeeds = 6000

// fuzzProbeSeeds is how many of them the traced run also generates and
// oracles on its own, to split synth.check between its stages.
const fuzzProbeSeeds = 300

// fuzzSeedRange is the range of generator seeds the benchmark seed
// selects; the ranges of two benchmark seeds do not overlap.
func fuzzSeedRange(seed uint64) (lo, hi uint64) {
	lo = fuzzSeeds * seed
	return lo, lo + fuzzSeeds
}

// fuzzRunner is fuzz-corpus: one pass runs synth.CheckSeed (generate,
// oracle, original run, prefetched run, compare) on fuzzSeeds
// consecutive seeds with one cell.Pool, as cmd/dtafuzz does in bulk.
type fuzzRunner struct {
	pool    *cell.Pool
	reports []*synth.Report // of the pass just run
	first   string          // digest of the warm-up pass's reports

	pool0, pool1 poolCounters // around pass 1
}

func (r *fuzzRunner) setup(e *env) error {
	r.pool = cell.NewPool()
	r.pass(e, 0)
	r.verify(e, 0)
	return nil
}

func (r *fuzzRunner) pass(e *env, k int) {
	if k == 1 {
		r.pool0 = readPoolCounters()
	}
	r.reports = r.reports[:0]
	opt := synth.CheckOptions{Pool: r.pool}
	lo, hi := fuzzSeedRange(e.seed)
	for s := lo; s != hi; s++ {
		e.probeIfDue()
		start := time.Now()
		sp := e.tr.begin("synth.check", e.passSpan, int64(s))
		rep, err := synth.CheckSeed(s, opt)
		e.tr.end(sp)
		e.op(time.Since(start), err)
		r.reports = append(r.reports, rep)
	}
	if k == 1 {
		r.pool1 = readPoolCounters()
	}
}

func (r *fuzzRunner) verify(e *env, k int) {
	h := sha256.New()
	for _, rep := range r.reports {
		if rep != nil {
			fmt.Fprintf(h, "%+v\n", *rep)
		}
	}
	d := hex.EncodeToString(h.Sum(nil))
	switch {
	case k == 0:
		r.first = d
	case d != r.first:
		e.fail(fmt.Errorf("pass %d reports differ from the first pass", k))
	}
}

func (r *fuzzRunner) finish(e *env, layer map[string]float64) string {
	if e.tr == nil {
		return r.first
	}
	for _, rep := range r.reports {
		if rep != nil {
			layer["model.sim_cycles"] += float64(rep.OrigCycles + rep.PFCycles)
			layer["dta.threads"] += float64(rep.Threads)
		}
	}
	layer["cell.pool_miss_ratio"] = r.pool0.missRatio(r.pool1)

	lo, _ := fuzzSeedRange(e.seed)
	for s := lo; s != lo+fuzzProbeSeeds; s++ {
		var prog *celldta.Program
		var err error
		e.tr.do("synth.generate", e.passSpan, int64(s), func() { prog, err = synth.Generate(synth.FromSeed(s)) })
		if err == nil {
			e.tr.do("synth.oracle", e.passSpan, int64(s), func() { _, err = synth.RunOracle(prog, 0) })
		}
		if err != nil {
			e.fail(fmt.Errorf("seed %d: probe: %w", s, err))
		}
	}
	us := time.Microsecond
	layer["synth.generate_us"] = e.tr.medianOf("synth.generate", us)
	layer["synth.oracle_us"] = e.tr.medianOf("synth.oracle", us)
	layer["synth.check_us"] = e.tr.medianOf("synth.check", us)
	return r.first
}
