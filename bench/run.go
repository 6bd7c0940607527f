package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// runner is one workload. The child process drives it: setup once, then
// pass/verify until the measuring time is used up, then finish.
type runner interface {
	// setup builds the inputs, starts what has to be started and runs
	// pass 0, the one untimed warm-up pass.
	setup(e *env) error
	// pass does the fixed work of one pass and reports every operation
	// through e.op. Timed passes count from 1.
	pass(e *env, k int)
	// verify checks pass k's outputs once the clock has stopped (pass-k
	// results identical to pass 1, and so on), reporting through e.fail.
	verify(e *env, k int)
	// finish runs the end-of-run checks, returns the digest of the
	// canonical simulated outputs and, on a traced run, fills in the
	// layer metrics only this workload can know. It releases what setup
	// started.
	finish(e *env, layer map[string]float64) (modelDigest string)
}

// workloadDef describes one workload; BENCHMARK.json repeats name and why.
type workloadDef struct {
	name, why string
	new       func() runner
}

var workloadDefs = []workloadDef{
	{"sim-orig", "blocking READs: every access crosses the NoC to memory, so sim/noc/mem do the work and mfc none",
		func() runner { return &simRunner{} }},
	{"sim-pf", "the paper's mechanism: the same programs after prefetch.Transform, so spu burst issue, mfc and ls dominate",
		func() runner { return &simRunner{prefetch: true} }},
	{"paper-sweep", "the headline journey: the whole experiment registry as cmd/experiments runs it, run cache and checkpoint/fork included",
		func() runner { return &sweepRunner{} }},
	{"fuzz-corpus", "thousands of sub-millisecond differential checks: generation, transform, machine reset and the Go runtime dominate",
		func() runner { return &fuzzRunner{} }},
	{"service-mix", "dtad over HTTP, 2 closed-loop clients, 70% hot keys and 30% never-seen keys: run keys, queue, encode and the result cache",
		func() runner { return &serviceRunner{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a workload runs with: the seed its inputs come from, the
// tracer (nil on the untraced run) and the operation ledger.
type env struct {
	seed  uint64
	tr    *tracer
	meter *speedMeter // times the work between speed probes (probe.go)

	attempted, failed int64
	errs              []string
	timing            bool            // set during timed passes: ops record their latency
	lat               []time.Duration // latency of every operation of the timed passes
	passSpan          int32           // the current pass's span, parent of the calls it makes
}

// op records one operation: a simulation, an experiment, a seed check or
// an HTTP request.
func (e *env) op(d time.Duration, err error) {
	e.attempted++
	if e.timing {
		e.lat = append(e.lat, d)
	}
	if err != nil {
		e.fail(err)
	}
}

// fail counts a failed operation or a failed correctness check.
func (e *env) fail(err error) {
	e.failed++
	if len(e.errs) < 8 {
		e.errs = append(e.errs, err.Error())
	}
}

// probe ends the stretch of work under way, times one speed probe and
// starts the next stretch.
func (e *env) probe() {
	m := e.meter
	now, cpu := time.Now(), processCPU()
	if !m.start.IsZero() {
		m.stretches = append(m.stretches, clocks{wall: now.Sub(m.start), cpu: cpu - m.startCPU})
	}
	sp := e.tr.begin("bench.probe", e.passSpan, 0)
	m.probes = append(m.probes, m.sample())
	e.tr.end(sp)
	m.start, m.startCPU = time.Now(), processCPU()
}

// probeIfDue is what a workload calls between two operations: it probes
// when probeEvery of work has gone by since the last probe.
func (e *env) probeIfDue() {
	if time.Since(e.meter.start) >= probeEvery {
		e.probe()
	}
}

// beginMeasure starts measuring (the set-up, or one pass) with a probe;
// endMeasure ends it with another and reports the time between the two.
// lead is time that went by before beginMeasure and counts as well (the
// process's start, for the set-up); it is calibrated by the first probe.
func (e *env) beginMeasure() {
	m := e.meter
	m.probes, m.stretches, m.start = m.probes[:0], m.stretches[:0], time.Time{}
	e.probe()
}

func (e *env) endMeasure(lead time.Duration) passTimes {
	e.probe()
	m := e.meter
	m.start = time.Time{}
	t := m.calibrate()
	t.raw.wall += lead
	t.calibrated.wall += time.Duration(float64(lead) * float64(probeRef) / float64(m.probes[0].wall))
	return t
}

// minPasses is the fewest timed passes a run reports medians from.
const minPasses = 3

// childReport is what a child process hands its parent, as one JSON line.
type childReport struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	SetupS      float64            `json:"setup_s"`
	Passes      int                `json:"passes"`
	Ops         int                `json:"ops"` // timed operations behind the latency percentiles
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	ModelDigest string             `json:"model_digest"`
	WallS       []float64          `json:"wall_s"`     // of each timed pass, in calibrated seconds
	RawWallS    []float64          `json:"raw_wall_s"` // the same as measured
	CPUS        []float64          `json:"cpu_s"`      // process CPU time of each timed pass, in calibrated seconds
	Metrics     map[string]float64 `json:"metrics"`
	Spans       []spanTotals       `json:"spans,omitempty"`
}

// runChild is the body of a child process: one workload, set up once and
// measured for the given time. started is when the parent launched the
// process, so setup_s covers runtime and package initialisation too.
// With setupOnly the child stops after set-up (the parent starts several
// to take the median set-up time of cold processes).
func runChild(def workloadDef, seed uint64, seconds float64, traced, setupOnly bool, traceOut string, started time.Time) (*childReport, error) {
	e := &env{seed: seed, passSpan: -1, meter: newSpeedMeter()}
	if traced {
		e.tr = newTracer()
	}
	r := def.new()

	sp := e.tr.begin("setup", -1, 0)
	e.passSpan = sp
	lead := time.Since(started)
	e.beginMeasure()
	if err := r.setup(e); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", def.name, err)
	}
	setup := e.endMeasure(lead)
	e.tr.end(sp)
	rep := &childReport{Workload: def.name, Seed: seed, Traced: traced, SetupS: setup.calibrated.wall.Seconds()}
	if setupOnly {
		r.finish(e, map[string]float64{})
		rep.Attempted, rep.Failed, rep.Errors = e.attempted, e.failed, e.errs
		return rep, nil
	}

	var profile bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var allocMB, probeMS []float64
	var ms runtime.MemStats
	e.timing = true
	begin := time.Now()
	for k := 1; k <= minPasses || time.Since(begin).Seconds() < seconds; k++ {
		e.passSpan = e.tr.begin("pass", -1, int64(k))
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		e.beginMeasure()
		r.pass(e, k)
		t := e.endMeasure(0)
		runtime.ReadMemStats(&ms)
		e.tr.end(e.passSpan)
		rep.WallS = append(rep.WallS, t.calibrated.wall.Seconds())
		rep.RawWallS = append(rep.RawWallS, t.raw.wall.Seconds())
		rep.CPUS = append(rep.CPUS, t.calibrated.cpu.Seconds())
		probeMS = append(probeMS, t.probeMS)
		allocMB = append(allocMB, float64(ms.TotalAlloc-alloc0)/1e6)
		e.timing = false
		r.verify(e, k)
		e.timing = true
	}
	e.timing = false
	if traced {
		pprof.StopCPUProfile()
	}
	rep.Passes = len(rep.WallS)
	rep.Ops = len(e.lat)

	e.passSpan = e.tr.begin("finish", -1, 0)
	layer := map[string]float64{}
	rep.ModelDigest = r.finish(e, layer)
	e.tr.end(e.passSpan)
	rep.Attempted, rep.Failed, rep.Errors = e.attempted, e.failed, e.errs

	rep.Metrics = layer
	if !traced {
		// The end-to-end metrics, beside whatever the workload reports on
		// every run (paper-sweep: the model's error against the paper).
		// Times are in calibrated seconds, and the first quartile of the
		// passes: what the probes miss of a disturbance only ever adds
		// time to a pass, so the lower quartile repeats better than the
		// median (and than the minimum, which a single slow probe sets).
		layer["setup_s"] = rep.SetupS
		layer["wall_s"] = firstQuartile(rep.WallS)
		layer["cpu_s_per_pass"] = firstQuartile(rep.CPUS)
		layer["alloc_mb_per_pass"] = median(allocMB)
		return rep, nil
	}

	lat := msOf(e.lat)
	layer["host.op_p50_ms"] = percentile(lat, 50)
	layer["host.op_p90_ms"] = percentile(lat, 90)
	cpu, err := cpuByBucket(profile.Bytes())
	if err != nil {
		return nil, err
	}
	for name, secs := range cpu {
		layer[name] = secs / float64(rep.Passes) // CPU seconds per pass
	}
	layer["host.peak_rss_mb"] = peakRSSMB()
	layer["host.raw_wall_s"] = median(rep.RawWallS)
	layer["host.probe_ms"] = median(probeMS)
	wall := firstQuartile(rep.WallS)
	if n := layer["spu.guest_instr"]; n > 0 {
		layer["host.guest_minstr_per_s"] = n / 1e6 / wall
		layer["host.ns_per_guest_instr"] = wall * 1e9 / n
	}
	if n := layer["noc.messages"]; n > 0 {
		layer["host.ns_per_noc_message"] = wall * 1e9 / n
	}
	rep.Spans = e.tr.selfTimes()
	if traceOut != "" {
		if err := e.tr.writeChrome(traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return rep, nil
}
