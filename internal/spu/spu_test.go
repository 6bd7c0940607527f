package spu_test

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The SPU is exercised through a one-SPE machine: its contract is only
// meaningful wired to an LSE, MFC and memory. These tests build tiny
// single-thread programs and assert on pipeline-level observables
// (instruction counts, cycle costs, stall buckets, register semantics).

// progEX builds a program whose root runs the given EX body and posts
// r1's final value to the mailbox.
func progEX(build func(ex *program.Asm)) (*program.Program, error) {
	b := program.NewBuilder("sputest")
	root := b.Template("root")
	root.PL().Load(program.R(9), 0)
	build(root.EX())
	root.PS().
		StoreMailbox(program.R(1), program.R(99), 0).
		Ffree().
		Stop()
	b.Entry(root, 7)
	return b.Build()
}

// runEX runs progEX's program on a new machine and returns the result. A
// nil t is allowed inside property functions (failures panic instead).
func runEX(t *testing.T, cfg cell.Config, build func(ex *program.Asm)) *cell.Result {
	if t != nil {
		t.Helper()
	}
	fatal := func(err error) {
		if t != nil {
			t.Fatal(err)
		} else {
			panic(err)
		}
	}
	p, err := progEX(build)
	if err != nil {
		fatal(err)
	}
	m, err := cell.New(cfg, p)
	if err != nil {
		fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		fatal(err)
	}
	return res
}

func oneSPE() cell.Config {
	cfg := cell.DefaultConfig()
	cfg.SPEs = 1
	cfg.MaxCycles = 10_000_000
	return cfg
}

func TestALUSemanticsAgainstGoReference(t *testing.T) {
	// Each op is executed on the pipeline with two random operands and
	// compared against Go semantics.
	ops := []struct {
		op  isa.Op
		ref func(a, b int64) int64
	}{
		{isa.ADD, func(a, b int64) int64 { return a + b }},
		{isa.SUB, func(a, b int64) int64 { return a - b }},
		{isa.MUL, func(a, b int64) int64 { return a * b }},
		{isa.AND, func(a, b int64) int64 { return a & b }},
		{isa.OR, func(a, b int64) int64 { return a | b }},
		{isa.XOR, func(a, b int64) int64 { return a ^ b }},
		{isa.SHL, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{isa.SHR, func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }},
		{isa.SRA, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
		{isa.DIV, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a / b
		}},
		{isa.REM, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a % b
		}},
		{isa.CMPEQ, func(a, b int64) int64 {
			if a == b {
				return 1
			}
			return 0
		}},
		{isa.CMPLT, func(a, b int64) int64 {
			if a < b {
				return 1
			}
			return 0
		}},
		{isa.CMPLTU, func(a, b int64) int64 {
			if uint64(a) < uint64(b) {
				return 1
			}
			return 0
		}},
	}
	rng := sim.NewRand(31)
	for _, c := range ops {
		// Constrain operands to int32 so they load with one MOVI.
		a := int64(int32(rng.Uint32()))
		bv := int64(int32(rng.Uint32()))
		res := runEX(t, oneSPE(), func(ex *program.Asm) {
			ex.Movi(program.R(2), int32(a))
			ex.Movi(program.R(3), int32(bv))
			ex.Emit(isa.Instruction{Op: c.op, Rd: 1, Ra: 2, Rb: 3})
		})
		if got, want := res.Tokens[0], c.ref(a, bv); got != want {
			t.Errorf("%s(%d, %d) = %d, want %d", c.op, a, bv, got, want)
		}
	}
}

// Property: MOVHI/ORI pairs build any non-negative 64-bit constant with
// a zero-sign low half.
func TestLiPairProperty(t *testing.T) {
	f := func(hi int32, lo uint32) bool {
		lo &= 0x7FFFFFFF
		want := int64(hi)<<32 | int64(lo)
		res := runEX(nil, oneSPE(), func(ex *program.Asm) {
			ex.Emit(isa.Instruction{Op: isa.MOVHI, Rd: 1, Imm: hi})
			ex.Emit(isa.Instruction{Op: isa.ORI, Rd: 1, Ra: 1, Imm: int32(lo)})
		})
		return res.Tokens[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	res := runEX(t, oneSPE(), func(ex *program.Asm) {
		ex.Emit(isa.Instruction{Op: isa.MOVI, Rd: 0, Imm: 99}) // write to r0
		ex.Emit(isa.Instruction{Op: isa.ADDI, Rd: 1, Ra: 0, Imm: 5})
	})
	if res.Tokens[0] != 5 {
		t.Fatalf("r0 was written: result %d, want 5", res.Tokens[0])
	}
}

func TestDualIssuePairsMemAndCompute(t *testing.T) {
	// A strictly alternating mem/compute instruction stream with no
	// dependencies should approach 2 instructions per cycle; a
	// compute-only stream with chained deps approaches 1 per LatFX.
	cfg := oneSPE()
	mk := func(paired bool) int64 {
		res := runEX(t, cfg, func(ex *program.Asm) {
			ex.Movi(program.R(1), 0)
			for i := 0; i < 64; i++ {
				if paired {
					// LS write (mem slot) + independent add (compute slot).
					ex.Lswr8(program.R(1), program.RegPFB, 0x9000)
					ex.Addi(program.R(2), program.R(3), 1)
				} else {
					// Dependent chain: no dual issue possible.
					ex.Addi(program.R(1), program.R(1), 1)
				}
			}
		})
		return int64(res.Cycles)
	}
	paired := mk(true)
	chained := mk(false)
	// 128 instructions paired vs 64 chained. The paired version issues
	// 2/cycle; the chain pays LatFX per instruction.
	if paired >= chained {
		t.Fatalf("dual issue gave no benefit: paired=%d chained=%d", paired, chained)
	}
}

func TestBranchPenaltyCharged(t *testing.T) {
	cfg := oneSPE()
	cfg.SPU.BranchPenalty = 0
	fast := runEX(t, cfg, loopBody(200))
	cfg.SPU.BranchPenalty = 10
	slow := runEX(t, cfg, loopBody(200))
	delta := int64(slow.Cycles - fast.Cycles)
	// 200 taken branches x 10 cycles; allow scheduling slack.
	if delta < 1800 || delta > 2400 {
		t.Fatalf("branch penalty delta = %d, want ~2000", delta)
	}
}

func loopBody(n int32) func(ex *program.Asm) {
	return func(ex *program.Asm) {
		ex.Movi(program.R(1), 0)
		ex.Movi(program.R(2), n)
		ex.Label("top")
		ex.Addi(program.R(1), program.R(1), 1)
		ex.Blt(program.R(1), program.R(2), "top")
	}
}

func TestMULLatencyVisibleInDependentChain(t *testing.T) {
	cfg := oneSPE()
	cfg.SPU.LatMUL = 7
	slow := runEX(t, cfg, mulChain(100))
	cfg.SPU.LatMUL = 2
	fast := runEX(t, cfg, mulChain(100))
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("MUL latency had no effect: %d vs %d", slow.Cycles, fast.Cycles)
	}
	delta := int64(slow.Cycles - fast.Cycles)
	if delta < 400 {
		t.Fatalf("delta = %d, want ~500 (100 muls x 5 extra cycles)", delta)
	}
}

func mulChain(n int) func(ex *program.Asm) {
	return func(ex *program.Asm) {
		ex.Movi(program.R(1), 1)
		ex.Movi(program.R(2), 1)
		for i := 0; i < n; i++ {
			ex.Mul(program.R(1), program.R(1), program.R(2))
		}
	}
}

func TestBlockingReadCostsMemoryLatency(t *testing.T) {
	cfg := oneSPE()
	cfg.Mem.Latency = 150
	res := runEX(t, cfg, func(ex *program.Asm) {
		ex.Movi(program.R(2), 0x100000)
		ex.Read(program.R(1), program.R(2), 0)
	})
	if got := res.Agg.Breakdown[stats.MemStall]; got < 150 {
		t.Fatalf("MemStall = %d cycles, want >= 150", got)
	}
	if res.Agg.Instr.Read != 1 {
		t.Fatalf("Read count = %d", res.Agg.Instr.Read)
	}
}

func TestPerfectCacheRemovesMemStalls(t *testing.T) {
	cfg := oneSPE()
	cfg.Mem.Latency = 150
	cfg.SPU.PerfectCacheLat = 1
	res := runEX(t, cfg, func(ex *program.Asm) {
		ex.Movi(program.R(2), 0x100000)
		ex.Read(program.R(1), program.R(2), 0)
		ex.Write(program.R(1), program.R(2), 64)
	})
	if got := res.Agg.Breakdown[stats.MemStall]; got != 0 {
		t.Fatalf("MemStall = %d with perfect cache, want 0", got)
	}
	// The write must still land in memory (functional backdoor).
	// Reading it back through the result is covered by machine tests;
	// here the absence of faults plus 0 stalls is the contract.
	if res.Agg.Instr.Write != 1 {
		t.Fatalf("Write count = %d", res.Agg.Instr.Write)
	}
}

func TestMFCChannelCostCountsAsPrefetch(t *testing.T) {
	// A thread with a hand-written PF block: the channel-write cost
	// must land in the Prefetch bucket.
	b := program.NewBuilder("pfcost")
	root := b.Template("root")
	pf := root.Block(program.PF)
	pf.Load(program.R(1), 0)
	pf.Mfcea(program.R(1))
	pf.Mov(program.R(2), program.RegPFB)
	pf.Mfclsa(program.R(2))
	pf.Movi(program.R(3), 64)
	pf.Mfcsz(program.R(3))
	pf.Mfctag(program.RegTag)
	pf.Mfcget()
	root.PL().Load(program.R(4), 0)
	root.PS().
		StoreMailbox(program.R(4), program.R(5), 0).
		Ffree().
		Stop()
	b.Entry(root, 0x200000)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Templates[0].PrefetchBytes = 64

	run := func(chanCycles int) int64 {
		cfg := oneSPE()
		cfg.SPU.MFCChannelCycles = chanCycles
		m, err := cell.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Agg.Breakdown[stats.Prefetch]
	}
	cheap := run(1)
	costly := run(40)
	// 5 channel ops x ~39 extra cycles.
	if costly-cheap < 150 {
		t.Fatalf("channel cost not charged to Prefetch: %d vs %d", cheap, costly)
	}
}

func TestStallAttributionLSvsWorking(t *testing.T) {
	// A tight chain of dependent frame loads accumulates LS stalls.
	cfg := oneSPE()
	b := program.NewBuilder("lsstall")
	root := b.Template("root")
	pl := root.PL()
	pl.Load(program.R(1), 0)
	for i := 0; i < 32; i++ {
		// Dependent: each load's address register comes from the
		// previous load (always slot 0, value used as dummy offset).
		pl.Loadx(program.R(2), program.R(0))
		pl.Add(program.R(3), program.R(2), program.R(2)) // use it immediately
	}
	root.PS().StoreMailbox(program.R(1), program.R(9), 0).Ffree().Stop()
	b.Entry(root, 5)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Breakdown[stats.LSStall] == 0 {
		t.Fatal("dependent frame loads produced no LS stalls")
	}
}

func TestInstructionCountsExact(t *testing.T) {
	res := runEX(t, oneSPE(), func(ex *program.Asm) {
		ex.Movi(program.R(1), 1) // compute
		ex.Movi(program.R(2), 0x100000)
		ex.Read(program.R(3), program.R(2), 0)  // mem read
		ex.Write(program.R(3), program.R(2), 8) // mem write
		ex.Lsrd(program.R(4), program.RegPFB, 0x9000)
		ex.Lswr(program.R(4), program.RegPFB, 0x9008)
	})
	ic := res.Agg.Instr
	// PL: 1 load; EX: 6; PS: movi+store(mailbox)+ffree+stop = 4.
	if ic.Load != 1 || ic.Read != 1 || ic.Write != 1 || ic.LSDir != 2 {
		t.Fatalf("counts = %+v", ic)
	}
	if ic.Total != 1+6+4 {
		t.Fatalf("total = %d, want 11", ic.Total)
	}
	if ic.DTA != 2 { // ffree + stop
		t.Fatalf("DTA = %d", ic.DTA)
	}
	if ic.Store != 1 { // mailbox store
		t.Fatalf("Store = %d", ic.Store)
	}
}

func TestFaultOnBadLSAddress(t *testing.T) {
	cfg := oneSPE()
	b := program.NewBuilder("badls")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	root.EX().Lsrd(program.R(2), program.R(1), 0) // address = entry arg
	root.PS().StoreMailbox(program.R(2), program.R(3), 0).Ffree().Stop()
	b.Entry(root, 1<<40) // far outside the local store
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "ls:") {
		t.Fatalf("err = %v, want local-store fault", err)
	}
}

func TestBreakdownNeverNegativeAndComplete(t *testing.T) {
	// Property: for random small loop programs, the breakdown buckets
	// are non-negative and sum exactly to the run length.
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		n := int32(10 + rng.Intn(100))
		res := runEX(nil, oneSPE(), loopBody(n))
		var sum int64
		for _, v := range res.Agg.Breakdown {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == int64(res.Cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftCountMasking(t *testing.T) {
	// Shift counts use only the low 6 bits (Go shifts by >=64 would
	// zero; hardware masks).
	res := runEX(t, oneSPE(), func(ex *program.Asm) {
		ex.Movi(program.R(2), 1)
		ex.Movi(program.R(3), 65) // & 63 == 1
		ex.Shl(program.R(1), program.R(2), program.R(3))
	})
	if res.Tokens[0] != 2 {
		t.Fatalf("1 << 65 = %d, want 2 (masked shift)", res.Tokens[0])
	}
	_ = bits.UintSize
}

// TestReusedMachineDecodesEachProgram: a machine decodes into memory it
// keeps across Reset, so a machine handed one program after another must
// decode each as a new machine would — nothing of a longer program left
// behind in a shorter one, no table of the current program overwritten
// by a later block. Each run must report exactly what a fresh machine
// reports. Two machines do it side by side: the arenas are per machine,
// and the race detector would see anything they shared.
func TestReusedMachineDecodesEachProgram(t *testing.T) {
	bodies := []func(ex *program.Asm){
		mulChain(300), // one long block
		loopBody(50),  // a short one with a branch, over the long one's memory
		func(ex *program.Asm) { // memory-slot instructions and stores
			ex.Movi(program.R(1), 77)
			ex.Movi(program.R(2), 0x1000)
			ex.Write(program.R(1), program.R(2), 0)
			ex.Read(program.R(3), program.R(2), 0)
			ex.Add(program.R(1), program.R(1), program.R(3))
		},
		mulChain(700), // longer than anything before: the arena has to move
		loopBody(3),
	}
	for _, name := range []string{"one", "two"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var reused *cell.Machine
			for i, body := range bodies {
				p, err := progEX(body)
				if err != nil {
					t.Fatal(err)
				}
				if reused == nil {
					reused, err = cell.New(oneSPE(), p)
				} else {
					err = reused.Reset(p)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := reused.Run()
				if err != nil {
					t.Fatalf("program %d on the reused machine: %v", i, err)
				}
				want := runEX(t, oneSPE(), body)
				if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Tokens, want.Tokens) ||
					!reflect.DeepEqual(got.SPUs, want.SPUs) {
					t.Errorf("program %d: the reused machine reports %d cycles, tokens %v, SPU stats %+v; a fresh one %d, %v, %+v",
						i, got.Cycles, got.Tokens, got.SPUs, want.Cycles, want.Tokens, want.SPUs)
				}
			}
		})
	}
}

// forkProgram builds a root that forks one worker per body, worker i
// running body i in its EX block and posting r1 to mailbox slot i, so
// the workers' blocks run on every SPE of a small machine.
func forkProgram(bodies ...func(ex *program.Asm)) (*program.Program, error) {
	b := program.NewBuilder("fork")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	ps := root.PS()
	for i, body := range bodies {
		w := b.Template(fmt.Sprintf("w%d", i))
		w.PL().Load(program.R(9), 0)
		body(w.EX())
		w.PS().StoreMailbox(program.R(1), program.R(99), i).Ffree().Stop()
		ps.Falloc(program.R(2), w, 1).Store(program.R(1), program.R(2), 0)
	}
	ps.Ffree().Stop()
	b.Entry(root, 7)
	b.ExpectTokens(len(bodies))
	return b.Build()
}

// TestMachineSharesOneDecode: a machine decodes its program once, into
// one table every SPU reads, and keeps the table's arenas across Reset. A
// machine runs a small program, a larger one and the small one again,
// then re-runs it. After each run every SPU reads the same table, every
// decoded block equals a decode into new memory, every run scheduled
// from one of its entries equals a schedule into new memory, the arenas
// hold each block and each run once, and the run reports what a fresh
// machine reports. The smaller program after the larger is decoded into
// the larger's memory, and a re-run of a program decodes and schedules
// nothing. Last the machine runs bitcnt, whose tables must hold both
// kinds of loop the kernel iterates inside one step: a guarded one
// (kern) and a do-while one (shiftloop, hakfold).
func TestMachineSharesOneDecode(t *testing.T) {
	small, err := forkProgram(loopBody(3), mulChain(10), loopBody(5), mulChain(4))
	if err != nil {
		t.Fatal(err)
	}
	large, err := forkProgram(mulChain(300), loopBody(50), mulChain(700), loopBody(20),
		mulChain(100), loopBody(7), mulChain(40), loopBody(2))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloads.Get("bitcnt")
	bitcnt, err := w.Build(workloads.Params{N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cell.DefaultConfig()
	cfg.SPEs = 4
	cfg.MaxCycles = 10_000_000

	var m *cell.Machine
	var arenaStart any // the large program's first uop
	for i, p := range []*program.Program{small, large, small, small, bitcnt} {
		if m == nil {
			m, err = cell.New(cfg, p)
		} else {
			err = m.Reset(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		decodedBefore := len(m.SPEs()[0].SPU.DecodedCode().Arena())
		runsBefore := m.SPEs()[0].SPU.DecodedCode().Runs()
		got, err := m.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}

		code := m.SPEs()[0].SPU.DecodedCode()
		for _, spe := range m.SPEs() {
			if spe.SPU.DecodedCode() != code {
				t.Fatalf("run %d: SPU %d reads a decode table of its own", i, spe.Index)
			}
			if got.SPUs[spe.Index].Threads == 0 {
				t.Fatalf("run %d: SPU %d ran no thread; the test needs every SPU to decode", i, spe.Index)
			}
		}
		uops, runs, err := m.SPEs()[0].SPU.CheckTables()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if arena := code.Arena(); len(arena) != uops {
			t.Errorf("run %d: the arena holds %d uops for tables of %d: a block was decoded twice, or the arena was not rewound", i, len(arena), uops)
		}
		if runs == 0 {
			t.Errorf("run %d: no run was scheduled; the test needs the kernel's run step", i)
		}
		if code.Runs() != runs {
			t.Errorf("run %d: %d runs were scheduled for %d entries: a run was scheduled twice, or the runs were not rewound", i, code.Runs(), runs)
		}
		if p == bitcnt {
			if guarded, plain, _ := code.LoopRuns(); guarded == 0 || plain == 0 {
				t.Errorf("bitcnt: %d guarded and %d do-while loop runs scheduled; the kernel's loop step needs both", guarded, plain)
			}
		}
		switch i {
		case 1:
			arenaStart = &code.Arena()[0]
		case 2:
			if &code.Arena()[0] != arenaStart {
				t.Error("the small program after the large one was decoded into new memory")
			}
		case 3:
			if len(code.Arena()) != decodedBefore {
				t.Errorf("a re-run of the same program decoded %d uops again", len(code.Arena())-decodedBefore)
			}
			if code.Runs() != runsBefore {
				t.Errorf("a re-run of the same program scheduled %d runs again", code.Runs()-runsBefore)
			}
		}

		fresh, err := cell.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Tokens, want.Tokens) ||
			!reflect.DeepEqual(got.SPUs, want.SPUs) {
			t.Errorf("run %d: the reused machine reports %d cycles, tokens %v; a fresh one %d, %v",
				i, got.Cycles, got.Tokens, want.Cycles, want.Tokens)
		}
	}
}

// TestMmulPrefetchStepsLocalStoreLoop: after the paper's transformation
// mmul's inner loop reads both operands from the local store (two
// LSRDXs and six ALU ops). The kernel must schedule it as a loop run it
// iterates in place, and the run must keep the single-step numbers. On
// the loop's first entry the reference cycle issues the first LSRDX,
// and the run entered at the second, LSRDX r21, must step: its live-in
// r20 is late, but a local-store result the MUL reads beside r21, which
// it waits on longer.
func TestMmulPrefetchStepsLocalStoreLoop(t *testing.T) {
	w, _ := workloads.Get("mmul")
	p, err := w.Build(workloads.Params{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p, err = prefetch.Transform(p); err != nil {
		t.Fatal(err)
	}
	worker, at := -1, -1 // the template and EX pc of LSRDX r21
	for i, tp := range p.Templates {
		for pc, ins := range tp.Blocks[program.EX] {
			if tp.Name == "worker" && ins.Op == isa.LSRDX && ins.Rd == 21 {
				worker, at = i, pc
			}
		}
	}
	if at < 0 {
		t.Fatal("mmul-pf: the worker's EX block has no LSRDX r21")
	}
	var res [2]*cell.Result
	for i, burstMax := range []int{1, 0} {
		cfg := cell.DefaultConfig()
		cfg.SPEs = 2
		cfg.SPU.BurstMax = burstMax
		m, err := cell.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(sim.Never); err != nil {
			t.Fatal(err)
		}
		steps := int64(0) // read before Finish charges them
		for _, spe := range m.SPEs() {
			steps += spe.SPU.RunSteps(worker, program.EX, at)
		}
		if res[i], err = m.Finish(); err != nil {
			t.Fatal(err)
		}
		if burstMax == 1 {
			continue
		}
		if _, _, ls := m.SPEs()[0].SPU.DecodedCode().LoopRuns(); ls == 0 {
			t.Error("mmul-pf: no loop run with local-store ops was scheduled")
		}
		if steps == 0 {
			t.Errorf("mmul-pf: the run entered at the worker's LSRDX r21 (EX pc %d) never stepped", at)
		}
	}
	if res[0].Cycles != res[1].Cycles || !reflect.DeepEqual(res[0].SPUs, res[1].SPUs) {
		t.Errorf("kernel: %d cycles, %+v; single-step %d cycles, %+v", res[1].Cycles, res[1].SPUs, res[0].Cycles, res[0].SPUs)
	}
}
