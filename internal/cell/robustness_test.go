package cell

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/program"
)

// Failure-injection tests: every malformed runtime situation must abort
// with a diagnostic error, never hang or silently corrupt.

func buildAndRun(t *testing.T, cfg Config, build func(b *program.Builder)) error {
	t.Helper()
	b := program.NewBuilder("robust")
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m, err := New(cfg, p)
	if err != nil {
		return err
	}
	_, err = m.Run()
	return err
}

func TestFaultStoreToArbitraryValue(t *testing.T) {
	// STORE to a register holding a non-FP integer must fault with a
	// clear message (a classic program bug: forgetting to FALLOC).
	err := buildAndRun(t, smallConfig(1), func(b *program.Builder) {
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		ps := root.PS()
		ps.Movi(program.R(2), 12345) // not an FP
		ps.Store(program.R(1), program.R(2), 0)
		ps.Ffree()
		ps.Stop()
		b.Entry(root, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "non-FP") {
		t.Fatalf("err = %v, want non-FP fault", err)
	}
}

func TestFaultStoreSlotOutOfRange(t *testing.T) {
	err := buildAndRun(t, smallConfig(1), func(b *program.Builder) {
		child := b.Template("child")
		child.PL().Load(program.R(1), 0)
		child.PS().Ffree().Stop()
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		ps := root.PS()
		ps.Falloc(program.R(2), child, 1)
		ps.Movi(program.R(3), program.MaxFrameSlots+3)
		ps.Storex(program.R(1), program.R(2), program.R(3)) // slot out of range
		ps.Ffree()
		ps.Stop()
		b.Entry(root, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "slot index") {
		t.Fatalf("err = %v, want slot-range fault", err)
	}
}

func TestFaultOverdeliveredStores(t *testing.T) {
	// Child SC=1 but the root stores twice: the second store hits a
	// frame whose SC is already 0.
	err := buildAndRun(t, smallConfig(1), func(b *program.Builder) {
		child := b.Template("child")
		child.PL().Load(program.R(1), 0)
		child.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		ps := root.PS()
		ps.Falloc(program.R(2), child, 1)
		ps.Store(program.R(1), program.R(2), 0)
		ps.Store(program.R(1), program.R(2), 1) // SC already 0
		ps.Ffree()
		ps.Stop()
		b.Entry(root, 9)
	})
	if err == nil || !strings.Contains(err.Error(), "SC already 0") {
		t.Fatalf("err = %v, want SC-exhausted fault", err)
	}
}

func TestFaultBadMemoryRead(t *testing.T) {
	err := buildAndRun(t, smallConfig(1), func(b *program.Builder) {
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		ex := root.EX()
		ex.Movi(program.R(2), -64) // negative main-memory address
		ex.Read(program.R(3), program.R(2), 0)
		root.PS().StoreMailbox(program.R(3), program.R(4), 0).Ffree().Stop()
		b.Entry(root, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("err = %v, want out-of-range memory fault", err)
	}
}

func TestDeadlockDumpNamesComponents(t *testing.T) {
	// The deadlock diagnostic must name the stuck components so a user
	// can see where the SC went unsatisfied.
	err := buildAndRun(t, smallConfig(1), func(b *program.Builder) {
		child := b.Template("child")
		child.PL().Load(program.R(1), 0)
		child.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		ps := root.PS()
		ps.Falloc(program.R(2), child, 5) // SC never satisfied
		ps.Store(program.R(1), program.R(2), 0)
		ps.Ffree()
		ps.Stop()
		b.Entry(root, 1)
	})
	if err == nil {
		t.Fatal("expected deadlock")
	}
	for _, want := range []string{"deadlock", "lse0", "frames=", "ppe"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic missing %q:\n%v", want, err)
		}
	}
}

// TestDeadlockDumpNamesHeldArrivals: the network keeps no message, so a
// message under way shows only in the report line of the endpoint that
// holds it. Each machine is walked pass by pass and the engine's report
// taken at every boundary, as a deadlock there would print it: the PPE,
// an LSE, an MFC and a DSE must each, at some boundary, name a message
// they hold with its delivery cycle.
func TestDeadlockDumpNamesHeldArrivals(t *testing.T) {
	held := regexp.MustCompile(`^(ppe|lse|mfc|dse)\d*: .* arrivals=[1-9]\d* \[[a-z0-9-]+ from \d+ at \d+\]`)
	named := map[string]bool{}
	for _, p := range []*program.Program{progForkJoin(t, 4), progManualDMA(t)} {
		m, err := New(smallConfig(2), p)
		if err != nil {
			t.Fatal(err)
		}
		for st := StepBudget; st != StepDone; {
			for _, line := range m.eng.DeadlockError().Dumps {
				if g := held.FindStringSubmatch(line); g != nil {
					named[g[1]] = true
				}
			}
			if st, err = m.StepUntil(m.Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []string{"ppe", "lse", "mfc", "dse"} {
		if !named[c] {
			t.Errorf("no %s report line named a held message", c)
		}
	}
}

func TestCycleLimitAborts(t *testing.T) {
	cfg := smallConfig(1)
	cfg.MaxCycles = 10 // far too small for any program
	err := buildAndRun(t, cfg, func(b *program.Builder) {
		root := b.Template("root")
		root.PL().Load(program.R(1), 0)
		root.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
		b.Entry(root, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want cycle-limit error", err)
	}
}

func TestMachineRejectsInvalidProgram(t *testing.T) {
	// New must refuse a program whose prefetch reservation exceeds the
	// local-store heap.
	b := program.NewBuilder("huge")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	root.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
	b.Entry(root, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Templates[0].PrefetchBytes = 100 << 20 // 100 MB
	if _, err := New(smallConfig(1), p); err == nil ||
		!strings.Contains(err.Error(), "exceeds heap") {
		t.Fatalf("err = %v, want heap-exceeded rejection", err)
	}
}

// TestMachineRejectsUnsealedProgram: New and Reset take sealed programs
// only, and say so rather than validate what they were given. A copy of a
// sealed program is a program no Seal has marked.
func TestMachineRejectsUnsealedProgram(t *testing.T) {
	p := progMinimal(t)
	unsealed := *p
	if _, err := New(smallConfig(1), &unsealed); !errors.Is(err, program.ErrNotSealed) {
		t.Fatalf("New = %v, want program.ErrNotSealed", err)
	}
	m, err := New(smallConfig(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(&unsealed); !errors.Is(err, program.ErrNotSealed) {
		t.Fatalf("Reset = %v, want program.ErrNotSealed", err)
	}
	if err := program.Seal(&unsealed); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(&unsealed); err != nil {
		t.Fatalf("Reset after Seal: %v", err)
	}
}

// BenchmarkMachineForkJoin measures whole-machine simulation throughput
// on a fork/join thread storm (scheduler-bound, no main-memory waits).
func BenchmarkMachineForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.SPEs = 8
		cfg.MaxCycles = 10_000_000
		prog := progForkJoinBench(b, 24)
		m, err := New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

// progForkJoinBench mirrors the test fork/join program without the
// *testing.T plumbing.
func progForkJoinBench(b *testing.B, k int) *program.Program {
	bl := program.NewBuilder("forkjoin")
	joiner := bl.Template("joiner")
	pl := joiner.PL()
	pl.Movi(program.R(1), 0)
	pl.Movi(program.R(2), 0)
	pl.Movi(program.R(3), int32(k))
	pl.Label("top")
	pl.Loadx(program.R(4), program.R(2))
	pl.Add(program.R(1), program.R(1), program.R(4))
	pl.Addi(program.R(2), program.R(2), 1)
	pl.Blt(program.R(2), program.R(3), "top")
	joiner.PS().StoreMailbox(program.R(1), program.R(5), 0).Ffree().Stop()

	worker := bl.Template("worker")
	wpl := worker.PL()
	wpl.Load(program.R(1), 0)
	wpl.Load(program.R(2), 1)
	wpl.Load(program.R(3), 2)
	worker.EX().Shli(program.R(4), program.R(1), 1)
	wps := worker.PS()
	wps.Storex(program.R(4), program.R(2), program.R(3))
	wps.Ffree()
	wps.Stop()

	root := bl.Template("root")
	rpl := root.PL()
	rpl.Load(program.R(1), 0)
	rps := root.PS()
	rps.Falloc(program.R(2), joiner, k)
	rps.Movi(program.R(3), 0)
	rps.Label("fork")
	rps.Falloc(program.R(4), worker, 3)
	rps.Store(program.R(3), program.R(4), 0)
	rps.Store(program.R(2), program.R(4), 1)
	rps.Store(program.R(3), program.R(4), 2)
	rps.Addi(program.R(3), program.R(3), 1)
	rps.Blt(program.R(3), program.R(1), "fork")
	rps.Ffree()
	rps.Stop()
	bl.Entry(root, int64(k))
	p, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}
