package cell

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
)

// batchPrograms is a mixed workload for batch tests: loops, fork/join
// fan-outs and DMA-heavy memory programs of varying lengths, so the
// machines retire at different rounds and the refill path is exercised.
func batchPrograms(t testing.TB) []*program.Program {
	var progs []*program.Program
	for i := 0; i < 4; i++ {
		progs = append(progs,
			progLoop(t, int64(50+200*i)),
			progForkJoin(t, 2+2*i),
			progMemory(t),
			progMinimal(t),
		)
	}
	return progs
}

// TestMachineStepMatchesRun is the slice-fidelity contract at the
// machine level: driving a machine with Step slices of any size must
// produce a Result identical to Run in every reported number.
func TestMachineStepMatchesRun(t *testing.T) {
	cfg := smallConfig(2)
	for _, p := range []struct {
		name string
		prog *program.Program
	}{
		{"loop", progLoop(t, 500)},
		{"forkjoin", progForkJoin(t, 6)},
		{"memory", progMemory(t)},
		{"dma", progManualDMA(t)},
	} {
		want := run(t, cfg, p.prog)
		for _, budget := range []sim.Cycle{1, 17, 1000, DefaultSlice} {
			m, err := New(cfg, p.prog)
			if err != nil {
				t.Fatalf("%s: New: %v", p.name, err)
			}
			steps := 0
			for {
				st, err := m.Step(budget)
				if err != nil {
					t.Fatalf("%s budget=%d: Step: %v", p.name, budget, err)
				}
				if st == StepDone {
					break
				}
				steps++
				if steps > 10_000_000 {
					t.Fatalf("%s budget=%d: no progress", p.name, budget)
				}
			}
			got, err := m.Finish()
			if err != nil {
				t.Fatalf("%s budget=%d: Finish: %v", p.name, budget, err)
			}
			resultsIdentical(t, want, got, fmt.Sprintf("%s budget=%d", p.name, budget))
		}
	}
}

// TestBatchMatchesSequential runs a mixed scenario stream through Batch
// at several widths and asserts every result is identical to a plain
// run-to-completion Run of the same program, delivered in feed order.
func TestBatchMatchesSequential(t *testing.T) {
	cfg := smallConfig(2)
	progs := batchPrograms(t)
	want := make([]*Result, len(progs))
	for i, p := range progs {
		want[i] = run(t, cfg, p)
	}
	for _, width := range []int{1, 3, 8, 64} {
		got := make([]*Result, len(progs))
		next := 0
		b := NewBatch(NewPool(), width, 100)
		b.Run(func() (Scenario, bool) {
			if next >= len(progs) {
				return Scenario{}, false
			}
			i := next
			next++
			return Scenario{Cfg: cfg, Prog: progs[i], Done: func(res *Result, err error) {
				if err != nil {
					t.Errorf("width=%d scenario %d: %v", width, i, err)
					return
				}
				got[i] = res
			}}, true
		})
		for i := range progs {
			if got[i] == nil {
				t.Fatalf("width=%d: scenario %d never retired", width, i)
			}
			resultsIdentical(t, want[i], got[i], fmt.Sprintf("width=%d scenario=%d", width, i))
		}
	}
}

// TestBatchHorizonMatchesSequential is TestBatchMatchesSequential for
// the horizon-aware scheduler: per-scenario results must be identical
// to run-to-completion regardless of width or slice floor — only the
// interleaving across machines may differ from round-robin.
func TestBatchHorizonMatchesSequential(t *testing.T) {
	cfg := smallConfig(2)
	progs := batchPrograms(t)
	want := make([]*Result, len(progs))
	for i, p := range progs {
		want[i] = run(t, cfg, p)
	}
	for _, width := range []int{1, 3, 8, 64} {
		for _, slice := range []sim.Cycle{1, 100, DefaultSlice} {
			got := make([]*Result, len(progs))
			next := 0
			b := NewHorizonBatch(NewPool(), width, slice)
			b.Run(func() (Scenario, bool) {
				if next >= len(progs) {
					return Scenario{}, false
				}
				i := next
				next++
				return Scenario{Cfg: cfg, Prog: progs[i], Done: func(res *Result, err error) {
					if err != nil {
						t.Errorf("width=%d slice=%d scenario %d: %v", width, slice, i, err)
						return
					}
					got[i] = res
				}}, true
			})
			for i := range progs {
				if got[i] == nil {
					t.Fatalf("width=%d slice=%d: scenario %d never retired", width, slice, i)
				}
				resultsIdentical(t, want[i], got[i],
					fmt.Sprintf("horizon width=%d slice=%d scenario=%d", width, slice, i))
			}
			if b.Slices() < int64(len(progs)) {
				t.Fatalf("width=%d slice=%d: %d slices for %d scenarios", width, slice, b.Slices(), len(progs))
			}
			if b.Switches() >= b.Slices() {
				t.Fatalf("width=%d slice=%d: switches %d not below slices %d",
					width, slice, b.Switches(), b.Slices())
			}
		}
	}
}

// TestBatchContainsFailures checks a panicking scenario (nil program)
// and an erroring scenario (program too big for the configuration)
// retire with errors while their batch-mates complete normally.
func TestBatchContainsFailures(t *testing.T) {
	cfg := smallConfig(1)
	tiny := cfg
	tiny.LS.SizeBytes = 4096 // too small for any program's frames
	scenarios := []Scenario{
		{Cfg: cfg, Prog: nil},                // panics inside Get (nil program)
		{Cfg: tiny, Prog: progMinimal(t)},    // build error
		{Cfg: cfg, Prog: progLoop(t, 100)},   // healthy
		{Cfg: cfg, Prog: progForkJoin(t, 3)}, // healthy
	}
	errs := make([]error, len(scenarios))
	results := make([]*Result, len(scenarios))
	next := 0
	b := NewBatch(NewPool(), 4, 50)
	b.Run(func() (Scenario, bool) {
		if next >= len(scenarios) {
			return Scenario{}, false
		}
		i := next
		next++
		sc := scenarios[i]
		sc.Done = func(res *Result, err error) { results[i], errs[i] = res, err }
		return sc, true
	})
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "panicked") {
		t.Fatalf("nil-program scenario: err = %v, want contained panic", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("undersized-LS scenario reported no error")
	}
	for i := 2; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("healthy scenario %d failed: %v", i, errs[i])
		}
		if results[i] == nil || results[i].CheckErr != nil {
			t.Fatalf("healthy scenario %d: result %v", i, results[i])
		}
	}
}

// TestPoolCap checks the free list stops growing at the per-config cap
// and that NewPoolCap(0) stays unbounded.
func TestPoolCap(t *testing.T) {
	cfg := smallConfig(1)
	prog := progMinimal(t)
	fill := func(p *Pool, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m, err := New(cfg, prog)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			p.Put(m)
		}
	}
	p := NewPoolCap(3)
	fill(p, 5)
	if got := p.Idle(cfg); got != 3 {
		t.Fatalf("capped pool retains %d machines, want 3", got)
	}
	if m, err := p.Get(cfg, prog); err != nil || m == nil {
		t.Fatalf("Get from capped pool: %v", err)
	}
	if got := p.Idle(cfg); got != 2 {
		t.Fatalf("after Get: %d idle, want 2", got)
	}

	unbounded := NewPoolCap(0)
	fill(unbounded, DefaultPoolCap+2)
	if got := unbounded.Idle(cfg); got != DefaultPoolCap+2 {
		t.Fatalf("unbounded pool retains %d machines, want %d", got, DefaultPoolCap+2)
	}

	def := NewPool()
	fill(def, DefaultPoolCap+5)
	if got := def.Idle(cfg); got != DefaultPoolCap {
		t.Fatalf("default pool retains %d machines, want %d", got, DefaultPoolCap)
	}
}

// benchmarkBatchSweep pushes a fixed 64-scenario stream through Batch
// at the given width, reporting simulated cycles so benchjson can
// derive sim-cycles/sec/core (the batch always runs on one core), plus
// the scheduler-overhead pair: slices (machine advances) and switches
// (advances that changed machine) per sweep — the round-robin vs
// horizon A/B lives in exactly those two numbers.
func benchmarkBatchSweep(b *testing.B, width int, horizon bool) {
	cfg := smallConfig(2)
	base := batchPrograms(b)
	var progs []*program.Program
	for len(progs) < 64 {
		progs = append(progs, base...)
	}
	progs = progs[:64]
	// Size the free list to the batch width, as the batched runners do:
	// a width-64 batch keeps 64 machines live, and a default-cap pool
	// would rebuild retired configurations every round.
	pool := NewBatchPool(width)
	b.ResetTimer()
	var cycles, slices, switches int64
	for i := 0; i < b.N; i++ {
		batch := NewBatch(pool, width, 0)
		if horizon {
			batch = NewHorizonBatch(pool, width, 0)
		}
		next := 0
		batch.Run(func() (Scenario, bool) {
			if next >= len(progs) {
				return Scenario{}, false
			}
			p := progs[next]
			next++
			return Scenario{Cfg: cfg, Prog: p, Done: func(res *Result, err error) {
				if err != nil {
					b.Fatalf("scenario: %v", err)
				}
				cycles += int64(res.Cycles)
			}}, true
		})
		slices += batch.Slices()
		switches += batch.Switches()
	}
	// After the loop: metrics reported before b.N iterations run are
	// discarded by the testing package.
	b.ReportMetric(1, "cores")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
	b.ReportMetric(float64(slices)/float64(b.N), "slices")
	b.ReportMetric(float64(switches)/float64(b.N), "switches")
}

func BenchmarkBatchSweepW1(b *testing.B)  { benchmarkBatchSweep(b, 1, false) }
func BenchmarkBatchSweepW4(b *testing.B)  { benchmarkBatchSweep(b, 4, false) }
func BenchmarkBatchSweepW16(b *testing.B) { benchmarkBatchSweep(b, 16, false) }
func BenchmarkBatchSweepW64(b *testing.B) { benchmarkBatchSweep(b, 64, false) }

func BenchmarkBatchHorizonSweepW4(b *testing.B)  { benchmarkBatchSweep(b, 4, true) }
func BenchmarkBatchHorizonSweepW16(b *testing.B) { benchmarkBatchSweep(b, 16, true) }
func BenchmarkBatchHorizonSweepW64(b *testing.B) { benchmarkBatchSweep(b, 64, true) }
