package cell

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
)

func smallConfig(spes int) Config {
	cfg := DefaultConfig()
	cfg.SPEs = spes
	cfg.MaxCycles = 5_000_000
	return cfg
}

func run(t *testing.T, cfg Config, p *program.Program) *Result {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CheckErr != nil {
		t.Fatalf("functional check: %v", res.CheckErr)
	}
	return res
}

// progMinimal: the root thread posts its argument to the mailbox.
func progMinimal(t testing.TB) *program.Program {
	b := program.NewBuilder("minimal")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	root.PS().
		StoreMailbox(program.R(1), program.R(2), 0).
		Ffree().
		Stop()
	b.Entry(root, 42)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMinimalProgramCompletes(t *testing.T) {
	res := run(t, smallConfig(1), progMinimal(t))
	if len(res.Tokens) != 1 || res.Tokens[0] != 42 {
		t.Fatalf("tokens = %v", res.Tokens)
	}
	if res.Cycles <= 0 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	if res.Agg.Threads != 1 {
		t.Fatalf("threads = %d", res.Agg.Threads)
	}
}

// progLoop: the root sums 1..n with an EX loop.
func progLoop(t testing.TB, n int64) *program.Program {
	b := program.NewBuilder("loop")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0) // n
	ex := root.EX()
	ex.Movi(program.R(2), 0) // sum
	ex.Movi(program.R(3), 0) // i
	ex.Label("top")
	ex.Addi(program.R(3), program.R(3), 1)
	ex.Add(program.R(2), program.R(2), program.R(3))
	ex.Blt(program.R(3), program.R(1), "top")
	root.PS().
		StoreMailbox(program.R(2), program.R(4), 0).
		Ffree().
		Stop()
	b.Entry(root, n)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoopComputesSum(t *testing.T) {
	res := run(t, smallConfig(1), progLoop(t, 100))
	if len(res.Tokens) != 1 || res.Tokens[0] != 5050 {
		t.Fatalf("tokens = %v, want [5050]", res.Tokens)
	}
	// ~3 instructions per iteration, at least 100 cycles.
	if res.Cycles < 100 {
		t.Fatalf("cycles = %d, implausibly fast", res.Cycles)
	}
}

// progForkJoin: root forks k workers; each worker doubles its argument
// and stores it to the joiner; the joiner sums its k inputs and posts.
func progForkJoin(t testing.TB, k int) *program.Program { return progForkJoinEX(t, k, nil) }

// progForkJoinEX is progForkJoin with extra code appended to each
// worker's EX block. It may use r5 and up; the result does not depend on
// it.
func progForkJoinEX(t testing.TB, k int, workerEX func(ex *program.Asm)) *program.Program {
	b := program.NewBuilder("forkjoin")

	joiner := b.Template("joiner")
	{
		pl := joiner.PL()
		pl.Movi(program.R(1), 0) // sum
		pl.Movi(program.R(2), 0) // i
		pl.Movi(program.R(3), int32(k))
		pl.Label("top")
		pl.Loadx(program.R(4), program.R(2))
		pl.Add(program.R(1), program.R(1), program.R(4))
		pl.Addi(program.R(2), program.R(2), 1)
		pl.Blt(program.R(2), program.R(3), "top")
		joiner.PS().
			StoreMailbox(program.R(1), program.R(5), 0).
			Ffree().
			Stop()
	}

	worker := b.Template("worker")
	{
		pl := worker.PL()
		pl.Load(program.R(1), 0) // value
		pl.Load(program.R(2), 1) // joiner FP
		pl.Load(program.R(3), 2) // result slot in joiner
		ex := worker.EX()
		ex.Shli(program.R(4), program.R(1), 1) // value*2
		if workerEX != nil {
			workerEX(ex)
		}
		ps := worker.PS()
		ps.Storex(program.R(4), program.R(2), program.R(3))
		ps.Ffree()
		ps.Stop()
	}

	root := b.Template("root")
	{
		pl := root.PL()
		pl.Load(program.R(1), 0) // k
		ps := root.PS()
		ps.Falloc(program.R(2), joiner, k)
		ps.Movi(program.R(3), 0) // i
		ps.Label("fork")
		ps.Falloc(program.R(4), worker, 3)
		ps.Addi(program.R(5), program.R(3), 10) // value = i+10
		ps.Store(program.R(5), program.R(4), 0)
		ps.Store(program.R(2), program.R(4), 1)
		ps.Store(program.R(3), program.R(4), 2)
		ps.Addi(program.R(3), program.R(3), 1)
		ps.Blt(program.R(3), program.R(1), "fork")
		ps.Ffree()
		ps.Stop()
	}

	b.Entry(root, int64(k))
	b.Check(func(memr program.MemReader, tokens []int64) error {
		want := int64(0)
		for i := 0; i < k; i++ {
			want += int64(i+10) * 2
		}
		if len(tokens) != 1 || tokens[0] != want {
			return fmt.Errorf("tokens = %v, want [%d]", tokens, want)
		}
		return nil
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestForkJoinAcrossSPEs(t *testing.T) {
	for _, spes := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%dspe", spes), func(t *testing.T) {
			res := run(t, smallConfig(spes), progForkJoin(t, 12))
			// 1 root + 1 joiner + 12 workers.
			if res.Agg.Threads != 14 {
				t.Fatalf("threads = %d, want 14", res.Agg.Threads)
			}
			if spes > 1 {
				// Work must actually spread: at least two SPEs ran threads.
				active := 0
				for _, s := range res.SPUs {
					if s.Threads > 0 {
						active++
					}
				}
				if active < 2 {
					t.Fatalf("threads ran on %d SPEs, want >= 2", active)
				}
			}
		})
	}
}

// progMemory: root reads two int32s from main memory, adds them, writes
// the sum back and posts it.
func progMemory(t testing.TB) *program.Program {
	b := program.NewBuilder("memory")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0) // base address
	ex := root.EX()
	ex.Read(program.R(2), program.R(1), 0)
	ex.Read(program.R(3), program.R(1), 4)
	ex.Add(program.R(4), program.R(2), program.R(3))
	ex.Write(program.R(4), program.R(1), 8)
	root.PS().
		StoreMailbox(program.R(4), program.R(5), 0).
		Ffree().
		Stop()
	const base = 0x100000
	b.Entry(root, base)
	buf := make([]byte, 8)
	buf[0], buf[1] = 11, 0 // 11
	buf[4] = 31            // 31
	b.Segment(base, buf)
	b.Check(func(memr program.MemReader, tokens []int64) error {
		if got := memr.Read32(base + 8); got != 42 {
			return fmt.Errorf("mem[base+8] = %d, want 42", got)
		}
		if len(tokens) != 1 || tokens[0] != 42 {
			return fmt.Errorf("tokens = %v", tokens)
		}
		return nil
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMemoryReadWrite(t *testing.T) {
	res := run(t, smallConfig(1), progMemory(t))
	if res.Agg.Instr.Read != 2 || res.Agg.Instr.Write != 1 {
		t.Fatalf("instr = %+v", res.Agg.Instr)
	}
	// Two blocking reads at 150-cycle latency dominate.
	if res.Agg.Breakdown[stats.MemStall] < 250 {
		t.Fatalf("MemStall = %d, want >= 250", res.Agg.Breakdown[stats.MemStall])
	}
}

// progManualDMA: the PF block programs the MFC to fetch 16 bytes; the EX
// block reads the prefetched data from the buffer (via RegPFB).
func progManualDMA(t testing.TB) *program.Program {
	b := program.NewBuilder("manualdma")
	root := b.Template("root")
	pf := root.Block(program.PF)
	pf.Load(program.R(1), 0) // main-memory address from frame
	pf.Mfcea(program.R(1))
	pf.Mov(program.R(2), program.RegPFB)
	pf.Mfclsa(program.R(2))
	pf.Movi(program.R(3), 16)
	pf.Mfcsz(program.R(3))
	pf.Mfctag(program.RegTag)
	pf.Mfcget()

	root.PL().Load(program.R(9), 0) // keep a PL read too
	ex := root.EX()
	ex.Lsrd(program.R(4), program.RegPFB, 0)
	ex.Lsrd(program.R(5), program.RegPFB, 4)
	ex.Add(program.R(6), program.R(4), program.R(5))
	root.PS().
		StoreMailbox(program.R(6), program.R(7), 0).
		Ffree().
		Stop()

	const base = 0x200000
	b.Entry(root, base)
	seg := make([]byte, 16)
	seg[0] = 100
	seg[4] = 55
	b.Segment(base, seg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Templates[0].PrefetchBytes = 16
	return p
}

func TestManualDMAPrefetch(t *testing.T) {
	res := run(t, smallConfig(1), progManualDMA(t))
	if len(res.Tokens) != 1 || res.Tokens[0] != 155 {
		t.Fatalf("tokens = %v, want [155]", res.Tokens)
	}
	if res.Agg.PFBlocks != 1 {
		t.Fatalf("PFBlocks = %d", res.Agg.PFBlocks)
	}
	if res.Agg.Breakdown[stats.Prefetch] == 0 {
		t.Fatal("no prefetch overhead recorded")
	}
	if res.Agg.Instr.MFC != 5 {
		t.Fatalf("MFC instr = %d, want 5 (lsa/ea/sz/tag/get)", res.Agg.Instr.MFC)
	}
	if res.MFCs[0].Gets != 1 || res.MFCs[0].BytesIn != 16 {
		t.Fatalf("mfc stats = %+v", res.MFCs[0])
	}
	// No blocking main-memory reads at all.
	if res.Agg.Instr.Read != 0 {
		t.Fatalf("Read = %d, want 0", res.Agg.Instr.Read)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Child expects 2 stores but only gets 1.
	b := program.NewBuilder("deadlock")
	child := b.Template("child")
	child.PL().Load(program.R(1), 0)
	child.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	ps := root.PS()
	ps.Falloc(program.R(2), child, 2) // SC=2, but only one store follows
	ps.Store(program.R(1), program.R(2), 0)
	ps.Ffree()
	ps.Stop()
	b.Entry(root, 7)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(smallConfig(1), p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var dl *sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestBreakdownSumsToRunLength(t *testing.T) {
	cfg := smallConfig(4)
	res := run(t, cfg, progForkJoin(t, 8))
	for i, s := range res.SPUs {
		if got := s.Breakdown.Total(); got != int64(res.Cycles) {
			t.Fatalf("SPU%d breakdown total %d != cycles %d", i, got, res.Cycles)
		}
	}
}

func TestDeterministicCycles(t *testing.T) {
	a := run(t, smallConfig(4), progForkJoin(t, 10))
	b := run(t, smallConfig(4), progForkJoin(t, 10))
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Agg.Instr != b.Agg.Instr {
		t.Fatalf("instruction counts differ: %+v vs %+v", a.Agg.Instr, b.Agg.Instr)
	}
}

// TestDeterministicStats is the scheduler's determinism regression: two
// machines built from identical configs must agree on every statistic —
// cycle counts, per-SPU breakdowns, LSE/MFC/DSE activity, memory and
// interconnect traffic — not just the headline cycle number. This pins
// the event-queue scheduler's contract (registration-order tie-breaks,
// same-cycle re-pass semantics) to observable machine behaviour.
func TestDeterministicStats(t *testing.T) {
	progs := map[string]func() *program.Program{
		"forkjoin": func() *program.Program { return progForkJoin(t, 10) },
		"dma":      func() *program.Program { return progManualDMA(t) },
	}
	for name, build := range progs {
		t.Run(name, func(t *testing.T) {
			a := run(t, smallConfig(4), build())
			b := run(t, smallConfig(4), build())
			if a.Cycles != b.Cycles {
				t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
			}
			if !reflect.DeepEqual(a.Tokens, b.Tokens) {
				t.Fatalf("tokens differ: %v vs %v", a.Tokens, b.Tokens)
			}
			for what, pair := range map[string][2]any{
				"spus": {a.SPUs, b.SPUs},
				"agg":  {a.Agg, b.Agg},
				"lses": {a.LSEs, b.LSEs},
				"mfcs": {a.MFCs, b.MFCs},
				"dses": {a.DSEs, b.DSEs},
				"mem":  {a.Mem, b.Mem},
				"net":  {a.Net, b.Net},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s stats differ:\n%+v\nvs\n%+v", what, pair[0], pair[1])
				}
			}
		})
	}
}

// progReads is progForkJoin whose k workers each make n blocking READs
// down one array, each after a pause as long as the worker's value, so
// that requests reach the memory alone and together, on quiet and on
// contended buses.
func progReads(t testing.TB, k, n int) *program.Program {
	return progForkJoinEX(t, k, func(ex *program.Asm) {
		ex.Movi(program.R(6), 0x100000)
		ex.Movi(program.R(7), 0)
		ex.Movi(program.R(8), int32(n))
		ex.Label("rd")
		ex.Movi(program.R(10), 0)
		ex.Label("pause")
		ex.Addi(program.R(10), program.R(10), 1)
		ex.Blt(program.R(10), program.R(1), "pause")
		ex.Read(program.R(5), program.R(6), 0)
		ex.Add(program.R(9), program.R(9), program.R(5))
		ex.Addi(program.R(6), program.R(6), 4)
		ex.Addi(program.R(7), program.R(7), 1)
		ex.Blt(program.R(7), program.R(8), "rd")
	})
}

// TestMachineStepMatchesRun is the slice-fidelity contract at the
// machine level: driving a machine with Step slices of any size must
// produce a Result identical to Run in every reported number. The
// READ-heavy runs at short memory latencies take budgets of 1-8 cycles,
// around the interconnect's minimum delivery latency, so that the READs
// the memory services at hand-over meet every kind of slice end: one
// before their service cycle, on it, and after.
func TestMachineStepMatchesRun(t *testing.T) {
	type tc struct {
		name    string
		cfg     Config
		prog    *program.Program
		budgets []sim.Cycle
	}
	var cases []tc
	for _, p := range []struct {
		name string
		prog *program.Program
	}{
		{"loop", progLoop(t, 500)},
		{"forkjoin", progForkJoin(t, 6)},
		{"memory", progMemory(t)},
		{"dma", progManualDMA(t)},
	} {
		cases = append(cases, tc{p.name, smallConfig(2), p.prog, []sim.Cycle{1, 17, 1000, 1 << 16}})
	}
	reads := progReads(t, 6, 40)
	for _, lat := range []int{0, 1, 150} {
		cfg := smallConfig(2)
		cfg.Mem.Latency = lat
		cases = append(cases, tc{fmt.Sprintf("reads lat=%d", lat), cfg, reads, []sim.Cycle{1, 2, 3, 4, 5, 6, 7, 8}})
	}
	for _, c := range cases {
		want := run(t, c.cfg, c.prog)
		for _, budget := range c.budgets {
			m, err := New(c.cfg, c.prog)
			if err != nil {
				t.Fatalf("%s: New: %v", c.name, err)
			}
			steps := 0
			for {
				st, err := m.Step(budget)
				if err != nil {
					t.Fatalf("%s budget=%d: Step: %v", c.name, budget, err)
				}
				if st == StepDone {
					break
				}
				steps++
				if steps > 10_000_000 {
					t.Fatalf("%s budget=%d: no progress", c.name, budget)
				}
			}
			got, err := m.Finish()
			if err != nil {
				t.Fatalf("%s budget=%d: Finish: %v", c.name, budget, err)
			}
			resultsIdentical(t, want, got, fmt.Sprintf("%s budget=%d", c.name, budget))
		}
	}
}

func TestMultiNodeMachine(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Nodes = 2
	res := run(t, cfg, progForkJoin(t, 12))
	if res.Agg.Threads != 14 {
		t.Fatalf("threads = %d", res.Agg.Threads)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SPEs = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted 0 SPEs")
	}
	for spes, ok := range map[int]bool{-1: false, 1: true, MaxSPEs: true, MaxSPEs + 1: false, 100000: false} {
		cfg = DefaultConfig()
		cfg.SPEs = spes
		if err := cfg.Validate(); (err == nil) != ok {
			t.Fatalf("SPEs = %d: Validate says %v", spes, err)
		}
	}
	cfg = DefaultConfig()
	cfg.Nodes = 3 // 8 % 3 != 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted indivisible node split")
	}
	cfg = DefaultConfig()
	cfg.LS.SizeBytes = 1024
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted tiny local store")
	}
	for field, set := range map[string]func(*Config){
		"Mem.Latency":    func(c *Config) { c.Mem.Latency = -5 },
		"Noc.HopLatency": func(c *Config) { c.Noc.HopLatency = -1 },
		"MFC.CmdLatency": func(c *Config) { c.MFC.CmdLatency = -30 },
		"LS.Latency":     func(c *Config) { c.LS.Latency = -6 },
	} {
		cfg = DefaultConfig()
		set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("negative %s: error %v does not name the field", field, err)
		}
		if _, err := New(cfg, progForkJoin(t, 2)); err == nil {
			t.Fatalf("New accepted a negative %s", field)
		}
	}
	// Zero latencies stay legal (the lat1 study runs memory at 1).
	cfg = DefaultConfig()
	cfg.Mem.Latency, cfg.Noc.HopLatency, cfg.MFC.CmdLatency, cfg.LS.Latency = 0, 0, 0, 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero latencies rejected: %v", err)
	}
}

func TestVirtualFPMachineRuns(t *testing.T) {
	cfg := smallConfig(4)
	cfg.LSE.VirtualFP = true
	res := run(t, cfg, progForkJoin(t, 12))
	if res.Agg.Threads != 14 {
		t.Fatalf("threads = %d", res.Agg.Threads)
	}
	binds := int64(0)
	for _, l := range res.LSEs {
		binds += l.VFPBinds
	}
	if binds == 0 {
		t.Fatal("virtual FP mode never bound a VFP")
	}
}
