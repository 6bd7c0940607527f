package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
)

//go:embed paper_reference.json
var paperReferenceJSON []byte

// paperRow is one paper value the repository quotes, with its source.
type paperRow struct {
	Row        string  `json:"row"`
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Paper      float64 `json:"paper"`
	Kind       string  `json:"kind"` // "pp", "ratio" or "count"
	Source     string  `json:"source"`
}

// gap is the row's distance from the paper: percentage points for "pp"
// rows, percent of the paper value for "ratio" and "count" rows.
func (r paperRow) gap(reproduced float64) float64 {
	if r.Kind == "pp" {
		return math.Abs(reproduced - r.Paper)
	}
	return 100 * math.Abs(reproduced-r.Paper) / r.Paper
}

func (r paperRow) gapUnit() string {
	if r.Kind == "pp" {
		return "pp"
	}
	return "%"
}

func paperRows() []paperRow {
	var doc struct {
		Rows []paperRow `json:"rows"`
	}
	if err := json.Unmarshal(paperReferenceJSON, &doc); err != nil {
		panic("bench: paper_reference.json: " + err.Error()) // embedded at build time
	}
	return doc.Rows
}

// sweepRunner is paper-sweep: one pass runs the whole experiment
// registry at paper sizes the way cmd/experiments does by default — one
// fresh harness context for the pass, harness.RunOn per experiment.
type sweepRunner struct {
	opt     harness.Options
	exps    []*harness.Experiment
	results []harness.RunResult // of the pass just run
	first   []string            // digest of each experiment's encoded outcome in the warm-up pass

	c0, c1 sweepCounters // process-wide counters around pass 1
}

// sweepCounters snapshots the exported counters of harness and cell.
type sweepCounters struct {
	executed, cacheHits, ckptHits, ckptMisses, cyclesSaved int64
	causes                                                 stats.CauseBreakdown
	pool                                                   poolCounters
}

func readSweepCounters() sweepCounters {
	c := sweepCounters{
		executed:    harness.RunsExecuted.Load(),
		cacheHits:   harness.RunCacheHits.Load(),
		ckptHits:    harness.CheckpointHits.Load(),
		ckptMisses:  harness.CheckpointMisses.Load(),
		cyclesSaved: harness.CheckpointCyclesSaved.Load(),
		pool:        readPoolCounters(),
	}
	for i := range c.causes {
		c.causes[i] = harness.CauseCycles[i].Load()
	}
	return c
}

func (r *sweepRunner) setup(e *env) error {
	r.opt = harness.Options{SPEs: 8, Latency: 150, Seed: e.seed}
	r.exps = harness.All()
	r.pass(e, 0)
	r.verify(e, 0)
	return nil
}

func (r *sweepRunner) pass(e *env, k int) {
	if k == 1 {
		r.c0 = readSweepCounters()
	}
	ctx := harness.NewContext(r.opt)
	r.results = r.results[:0]
	for _, exp := range r.exps {
		e.probeIfDue()
		sp := e.tr.begin("harness.exp."+exp.ID, e.passSpan, int64(k))
		res := harness.RunOn(ctx, exp)
		e.tr.end(sp)
		e.op(res.Elapsed, res.Err)
		r.results = append(r.results, res)
	}
	if k == 1 {
		r.c1 = readSweepCounters()
	}
}

func (r *sweepRunner) verify(e *env, k int) {
	for i, res := range r.results {
		res.Elapsed = 0 // the one field of the encoding that is host time
		line, err := service.EncodeRunResult(r.opt, res)
		if err != nil {
			e.fail(fmt.Errorf("%s: encode: %w", res.Experiment.ID, err))
			continue
		}
		sum := sha256.Sum256(line)
		d := hex.EncodeToString(sum[:])
		switch {
		case k == 0:
			r.first = append(r.first, d)
		case i >= len(r.first) || d != r.first[i]:
			e.fail(fmt.Errorf("%s: pass %d differs from the first pass", res.Experiment.ID, k))
		}
	}
}

// reproduced looks a reference row's value up in the last pass.
func (r *sweepRunner) reproduced(row paperRow) (float64, bool) {
	for _, res := range r.results {
		if res.Experiment.ID == row.Experiment && res.Outcome != nil {
			v, ok := res.Outcome.Metrics[row.Metric]
			return v, ok
		}
	}
	return 0, false
}

func (r *sweepRunner) finish(e *env, layer map[string]float64) string {
	h := sha256.New()
	for i, d := range r.first {
		fmt.Fprintf(h, "%s %s\n", r.exps[i].ID, d)
	}
	digest := hex.EncodeToString(h.Sum(nil))

	// The model's error against the paper is stated on every run, beside
	// the speed (a missing row is a failure); the traced run adds the rows.
	var gaps float64
	rows := paperRows()
	for _, row := range rows {
		v, ok := r.reproduced(row)
		if !ok {
			e.fail(fmt.Errorf("paper reference row %s: experiment %s reports no metric %s", row.Row, row.Experiment, row.Metric))
			continue
		}
		g := row.gap(v)
		if e.tr != nil {
			layer["model.gap."+row.Row] = g
		}
		gaps += g
	}
	layer["model.paper_gap_pct"] = gaps / float64(len(rows))
	if e.tr == nil {
		return digest
	}

	for _, res := range r.results {
		layer["model.sim_cycles"] += float64(res.SimCycles)
	}
	d := func(a, b int64) float64 { return float64(b - a) }
	var causes stats.CauseBreakdown
	for i := range causes {
		causes[i] = r.c1.causes[i] - r.c0.causes[i]
	}
	layer["spu.issue_cycles"] = float64(causes[stats.CauseIssue])
	layer["spu.stall_pct"] = causes.Buckets().StallPct()
	executed, hits := d(r.c0.executed, r.c1.executed), d(r.c0.cacheHits, r.c1.cacheHits)
	layer["harness.runs_executed"] = executed
	if executed+hits > 0 {
		layer["harness.run_cache_hit_ratio"] = hits / (executed + hits)
	}
	ckHits, ckMisses := d(r.c0.ckptHits, r.c1.ckptHits), d(r.c0.ckptMisses, r.c1.ckptMisses)
	if ckHits+ckMisses > 0 {
		layer["harness.checkpoint_hit_ratio"] = ckHits / (ckHits + ckMisses)
	}
	layer["harness.checkpoint_cycles_saved"] = d(r.c0.cyclesSaved, r.c1.cyclesSaved)
	layer["cell.pool_miss_ratio"] = r.c0.pool.missRatio(r.c1.pool)

	for _, m := range perLayer {
		if id, ok := strings.CutPrefix(m.name, "harness.exp_ms."); ok {
			layer[m.name] = e.tr.medianOf("harness.exp."+id, time.Millisecond)
		}
	}
	return digest
}
