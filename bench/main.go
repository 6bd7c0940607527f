// Command bench is the benchmark every performance or simplicity change
// in this repository is judged by. It measures the system from outside,
// through the public functions of its layers, on five workloads; the
// root BENCHMARK.json declares its command, workloads, metrics and
// regression bounds, and README.md in this directory explains the design.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-out FILE]
//	bash bench/run.sh -compare A.ndjson B.ndjson
//
// Each workload runs in child processes of its own (re-executions of
// this binary, one at a time). The untraced run (-trace 0) prints the
// end-to-end metrics; the traced run (-trace 1) repeats the workload
// with spans and a CPU profile on and prints the per-layer metrics and
// the tracing overhead. After each workload the last line printed is one
// JSON object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// setupRuns is how many cold processes set-up time is the median of.
const setupRuns = 3

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all, one after the other)")
		seed      = flag.Uint64("seed", 42, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "time to measure each workload for, in seconds")
		trace     = flag.Int("trace", 0, "1 repeats the workload with spans and a CPU profile on and prints the per-layer metrics")
		out       = flag.String("out", "", "append one JSON line per workload run to this file (input of -compare)")
		traceOut  = flag.String("trace-out", "", "where the traced run writes its spans as Chrome trace JSON (default .bench_build/<workload>.trace.json)")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in -benchmark")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
		child     = flag.String("child", "", "internal: run as a child process (\"full\" or \"setup\")")
		started   = flag.Int64("started", 0, "internal: when the parent launched this child, in Unix nanoseconds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.ndjson B.ndjson")
		}
		if err := runCompare(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace takes 0 or 1")
	}

	defs := workloadDefs
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(2, "unknown workload %q", *workload)
		}
		defs = []workloadDef{def}
	}

	if *child != "" {
		rep, err := runChild(defs[0], *seed, *seconds, *trace == 1, *child == "setup", *traceOut, time.Unix(0, *started))
		if err != nil {
			fatal(1, "%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(1, "%v", err)
		}
		return
	}

	ok := true
	for _, def := range defs {
		res, err := runWorkload(def, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fatal(1, "%v", err)
		}
		res.print(os.Stdout)
		if *out != "" {
			if err := res.appendTo(*out); err != nil {
				fatal(1, "%v", err)
			}
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run as the parent reports it: the last line of
// standard output carries Correct, Attempted, Failed and Metrics; the
// -out file carries all of it.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Traced      bool                   `json:"traced"`
	Seconds     float64                `json:"seconds"`
	Passes      int                    `json:"passes"`
	Ops         int                    `json:"ops"`
	ModelDigest string                 `json:"model_digest"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Errors      []string               `json:"errors,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	SetupRuns   []float64              `json:"setup_runs_s,omitempty"`
	WallS       []float64              `json:"wall_s"`     // of each timed pass, in calibrated seconds
	RawWallS    []float64              `json:"raw_wall_s"` // the same as measured
	CPUS        []float64              `json:"cpu_s"`      // process CPU time of each timed pass, in calibrated seconds
	Spans       []spanTotals           `json:"spans,omitempty"`
	Extra       map[string]float64     `json:"extra,omitempty"`
}

// spawn re-executes this binary as a child process for one workload and
// decodes the report it prints.
func spawn(def workloadDef, mode string, seed uint64, seconds float64, traced bool, traceOut string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", mode, "-workload", def.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
	}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceOut)
	}
	args = append(args, "-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, fmt.Errorf("%s: child process: %w", def.name, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", def.name, err)
	}
	return &rep, nil
}

// runWorkload measures one workload. Untraced: setupRuns cold processes
// are set up (the last one goes on to measure) and setup_s is the median.
// Traced: one untraced and one traced process, whose wall_s ratio is the
// tracing overhead.
func runWorkload(def workloadDef, seed uint64, seconds float64, traced bool, traceOut string) (*result, error) {
	res := &result{Workload: def.name, Seed: seed, Traced: traced, Seconds: seconds, Metrics: map[string]metricValue{}}
	add := func(rep *childReport) {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		res.Errors = append(res.Errors, rep.Errors...)
	}
	if !traced {
		for i := 1; i < setupRuns; i++ {
			rep, err := spawn(def, "setup", seed, seconds, false, "")
			if err != nil {
				return nil, err
			}
			add(rep)
			res.SetupRuns = append(res.SetupRuns, rep.SetupS)
		}
	}
	plain, err := spawn(def, "full", seed, seconds, false, "")
	if err != nil {
		return nil, err
	}
	add(plain)
	res.SetupRuns = append(res.SetupRuns, plain.SetupS)
	plain.Metrics["setup_s"] = median(res.SetupRuns)
	rep := plain

	if traced {
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", def.name+".trace.json")
		}
		rep, err = spawn(def, "full", seed, seconds, true, traceOut)
		if err != nil {
			return nil, err
		}
		add(rep)
		if rep.ModelDigest != plain.ModelDigest {
			res.Failed++
			res.Errors = append(res.Errors, "the traced run's model_digest differs from the untraced run's")
		}
		rep.Metrics["trace.overhead_pct"] = 100 * (firstQuartile(rep.WallS)/firstQuartile(plain.WallS) - 1)
		res.Spans = rep.Spans
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: rep.Metrics[m.name], Unit: m.unit}
		delete(rep.Metrics, m.name)
	}
	res.Extra = rep.Metrics // what is left is workload-specific and printed as is
	res.Passes, res.Ops, res.ModelDigest = rep.Passes, rep.Ops, rep.ModelDigest
	res.WallS, res.RawWallS, res.CPUS = rep.WallS, rep.RawWallS, rep.CPUS
	res.Correct = res.Failed == 0
	return res, nil
}
