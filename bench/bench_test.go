package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/workloads"
)

// The same seed must give the same inputs, and another seed other inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(passRequests(7, 2), passRequests(7, 2)) {
		t.Error("the same seed and pass gave two different request lists")
	}
	if reflect.DeepEqual(passRequests(7, 2), passRequests(8, 2)) {
		t.Error("two seeds gave the same request list")
	}
	if reflect.DeepEqual(passRequests(7, 2), passRequests(7, 3)) {
		t.Error("two passes of one seed gave the same request list")
	}
	if !reflect.DeepEqual(hotSet(7), hotSet(7)) || reflect.DeepEqual(hotSet(7), hotSet(8)) {
		t.Error("the hot set does not follow the seed")
	}
	lo, hi := fuzzSeedRange(7)
	if lo2, hi2 := fuzzSeedRange(7); lo != lo2 || hi != hi2 || hi-lo != fuzzSeeds {
		t.Errorf("fuzz seed range [%d,%d) then [%d,%d)", lo, hi, lo2, hi2)
	}
	if lo2, _ := fuzzSeedRange(8); lo2 < hi {
		t.Errorf("the fuzz seed ranges of seeds 7 and 8 overlap: %d < %d", lo2, hi)
	}
}

// Cold requests must never repeat a key, within a pass or across passes,
// and must never collide with the hot set.
func TestColdKeysAreNeverRepeated(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range hotSet(3) {
		seen[q.key()] = true
	}
	if len(seen) != serviceHotKeys {
		t.Fatalf("the hot set has %d distinct keys, want %d", len(seen), serviceHotKeys)
	}
	hot, cold := 0, 0
	for k := 0; k < 4; k++ {
		for _, q := range passRequests(3, k) {
			if q.hot {
				hot++
				continue
			}
			cold++
			if seen[q.key()] {
				t.Fatalf("pass %d repeats the key of %s seed %d", k, q.experiment, q.seed)
			}
			seen[q.key()] = true
		}
	}
	if share := float64(hot) / float64(hot+cold); share < 0.65 || share > 0.75 {
		t.Errorf("hot share %.3f, want about %.2f", share, serviceHotShare)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the benchmark's acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %g, %g; Python gives 1, 4", q1, q3)
	}
}

// A stretch of work counts for its time divided by how much slower than
// probeRef the probes on either side of it ran.
func TestCalibratedTime(t *testing.T) {
	ms := time.Millisecond
	at := func(f float64) clocks {
		d := time.Duration(f * float64(probeRef))
		return clocks{wall: d, cpu: d}
	}
	m := &speedMeter{
		probes:    []clocks{at(1), at(1), at(2), at(2)},
		stretches: []clocks{{wall: 100 * ms, cpu: 90 * ms}, {wall: 150 * ms, cpu: 300 * ms}, {wall: 200 * ms, cpu: 200 * ms}},
	}
	got := m.calibrate()
	if got.raw != (clocks{wall: 450 * ms, cpu: 590 * ms}) {
		t.Errorf("raw = %v", got.raw)
	}
	// 100/1 + 150/1.5 + 200/2 and 90/1 + 300/1.5 + 200/2
	if got.calibrated != (clocks{wall: 300 * ms, cpu: 390 * ms}) {
		t.Errorf("calibrated = %v, want 300ms and 390ms", got.calibrated)
	}
	if want := 1.5 * probeRef.Seconds() * 1e3; got.probeMS < want*0.999 || got.probeMS > want*1.001 {
		t.Errorf("probeMS = %g, want %g", got.probeMS, want)
	}

	e := &env{passSpan: -1, meter: newSpeedMeter()}
	e.beginMeasure()
	time.Sleep(2 * ms)
	e.probeIfDue() // not due after 2 ms
	pt := e.endMeasure(0)
	if len(e.meter.probes) != 2 || len(e.meter.stretches) != 1 || e.failed != 0 {
		t.Fatalf("%d probes, %d stretches, %d failures; want 2, 1, 0", len(e.meter.probes), len(e.meter.stretches), e.failed)
	}
	if pt.raw.wall < 2*ms || pt.calibrated.wall <= 0 || pt.calibrated.cpu < 0 {
		t.Errorf("measured %+v", pt)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	tr.add("parent", -1, 1, 0, base, 10*time.Millisecond)
	tr.add("child", 0, 1, 0, base.Add(time.Millisecond), 3*time.Millisecond)
	tr.add("child", 0, 1, 0, base.Add(5*time.Millisecond), 4*time.Millisecond)
	rows := tr.selfTimes()
	want := []spanTotals{
		{Name: "child", Count: 2, TotalMS: 7, SelfMS: 7},
		{Name: "parent", Count: 1, TotalMS: 10, SelfMS: 3},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("selfTimes = %+v, want %+v", rows, want)
	}
	if got := tr.medianOf("chi", time.Millisecond); got != 3.5 {
		t.Errorf("median child span = %g ms, want 3.5", got)
	}
	var off *tracer // the untraced run
	off.do("x", off.begin("y", -1, 0), 0, func() {})
	if off.selfTimes() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/spu.(*SPU).Tick":                             "repro/internal/spu",
		"repro/internal/sim.(*Heap[go.shape.struct { a/b.T }]).Push": "repro/internal/sim",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/atomic.(*Int64).Add":                       "internal/runtime/atomic",
		"main.main.func1":                                            "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/spu.(*SPU).Tick", "repro/internal/sim.(*Engine).Run"}, "spu.cpu_s"},
		{[]string{"repro/internal/workloads/refcheck.MatMul"}, "workloads.cpu_s"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "host.gc_cpu_s"},
		{[]string{"runtime.mallocgc", "repro/internal/noc.(*Network).Send"}, "host.runtime_cpu_s"},
		{[]string{"encoding/json.Marshal"}, "host.other_cpu_s"},
		{[]string{"container/heap.down", "container/heap.Fix", probeFunc, "main.(*speedMeter).sample"}, "host.probe_cpu_s"},
		{[]string{"repro/internal/obs.(*Registry).Write"}, "host.other_cpu_s"},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// A CPU profile captured here, of a real simulation, must decode, and the
// SPU interpreter — where the simulator spends most of its time — must
// come out in the spu bucket.
func TestCPUProfileRoundTrip(t *testing.T) {
	w, ok := workloads.Get("mmul")
	if !ok {
		t.Fatal("workload mmul is not registered")
	}
	prog, err := w.Build(workloads.Params{N: 32, Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pool := cell.NewPool()
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		m, err := pool.Get(cell.DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		pool.Put(m)
	}
	pprof.StopCPUProfile()

	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Skipf("only %d samples in 400 ms: the profiling timer does not run here", len(samples))
	}
	buckets, err := cpuByBucket(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for name, secs := range buckets {
		if !isPerLayerMetric(name) {
			t.Errorf("bucket %q is not a per-layer metric", name)
		}
		total += secs
	}
	if total < 0.1 || total > 2 {
		t.Errorf("profile adds up to %.3f s for a 0.4 s run", total)
	}
	if buckets["spu.cpu_s"] <= 0 || buckets["sim.cpu_s"] <= 0 {
		t.Errorf("no time in the spu and sim buckets: %v", buckets)
	}

	if _, err := decodeCPUProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func isPerLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", steady, true, "ok"},
		{"slower time", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, true, "regressed"},
		{"faster time", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, true, "ok"},
		{"lower throughput", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, false, "regressed"},
		{"noisy", []float64{0.7, 1.4, 0.9, 1.3, 1.0}, true, "unresolved"},
		{"noisy but better on every run", []float64{0.5, 0.9, 0.6, 0.8, 0.7}, true, "ok"},
	} {
		if got := verdict(steady, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// prints, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	decl, err := readBenchmarkDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := decl.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(decl.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the benchmark contract allows 128", len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		if d := decl.PerLayer[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		if seen[m.name] {
			t.Errorf("per-layer metric %s is listed twice", m.name)
		}
		seen[m.name] = true
	}
}
