package synth

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/cell"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The differential checker runs one scenario three ways — functional
// oracle, simulated original, simulated prefetch-transformed — and
// asserts that all three produce byte-identical results, that the
// machine's own functional check (against pure-Go expectations baked in
// at generation time) passes for both simulations, and that the
// prefetching run respects the performance invariants below.

const (
	maxCycles sim.Cycle = 100_000_000 // per-simulation cycle cap
	maxSteps            = 50_000_000  // oracle instruction budget

	// Guard band for the cycle invariant: the transformed program may be
	// slower than the original on tiny scenarios (DMA programming
	// overhead with almost nothing to hide — the paper's
	// bitcnt-at-latency-1 effect) but never by more than guardRatio x
	// plus guardSlack cycles. Corpus scenarios sit far inside this
	// envelope; a transformer or scheduler regression that serialises
	// DMA blows through it.
	guardRatio = 2.0
	guardSlack = 50_000

	// stallSlack is the tolerated growth of memory-stall cycles under
	// prefetching (absolute, on top of a 25% relative allowance); the
	// transformed run must satisfy
	//   pfStall <= origStall + origStall/4 + stallSlack.
	// Untagged (non-decoupled) READs still stall in both runs and DMA
	// traffic can delay them slightly, hence the allowance.
	stallSlack = 2000
)

// CheckOptions configures a differential run.
type CheckOptions struct {
	Latency int // main-memory latency (0 = the paper's 150)
	// Transform produces the prefetching variant (nil = prefetch.Transform).
	// Tests inject deliberately broken transformers here to prove the
	// checker and shrinker catch them.
	Transform func(*program.Program) (*program.Program, error)
	// Pool recycles machines across checks (per worker; must not be
	// shared across goroutines). nil builds a fresh machine per run.
	Pool *cell.Pool
	// DiffBurst additionally runs every simulation a second time with
	// the SPU burst fast path disabled (spu.Config.BurstMax = -1; see
	// that field's doc comment for the canonical value semantics) and
	// fails the check unless cycles, all statistics, tokens, the guest
	// profile and the final memory image are identical — the
	// slow-path/fast-path differential mode.
	DiffBurst bool
	// DiffCheckpoint additionally re-executes every simulation with a
	// snapshot/restore seam at its halfway boundary — capture there,
	// restore into a recycled machine, run to completion — and fails the
	// check unless the restored machine re-encodes to the bytes it was
	// restored from, and cycles, all statistics, tokens, the guest
	// profile and the final memory image are identical to the
	// uninterrupted run: the
	// checkpoint machinery's differential mode (see
	// cell.Machine.EncodeSnapshot).
	DiffCheckpoint bool
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.Latency == 0 {
		o.Latency = 150
	}
	if o.Transform == nil {
		o.Transform = prefetch.Transform
	}
	return o
}

// Report summarises one passing differential check.
type Report struct {
	Scenario    Scenario
	OrigCycles  sim.Cycle
	PFCycles    sim.Cycle
	OrigStall   int64 // memory-stall cycles, summed over SPUs
	PFStall     int64
	OracleSteps int64
	Threads     int64   // threads completed in the original simulation
	Decoupled   float64 // fraction of static READs rewritten by the transformer
	CodeLen     int
}

// DivergenceError describes a failed differential check; it keeps the
// scenario so callers can shrink it.
type DivergenceError struct {
	Scenario Scenario
	Phase    string // "generate" | "oracle" | "sim-orig" | "sim-pf" | "compare" | "invariant"
	Detail   string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("synth: seed %d [%s]: %s (%s)",
		e.Scenario.Seed, e.Phase, e.Detail, e.Scenario.Summary())
}

func diverged(sc Scenario, phase, format string, args ...any) *DivergenceError {
	return &DivergenceError{Scenario: sc, Phase: phase, Detail: fmt.Sprintf(format, args...)}
}

// runSim executes prog on a (pooled) machine and returns the result
// plus the machine (for its final memory image). With DiffBurst it
// also runs the single-step slow path and asserts bit-identical
// outcomes before returning the fast-path result.
func runSim(sc Scenario, opt CheckOptions, prog *program.Program) (*cell.Result, *cell.Machine, error) {
	cfg := cell.DefaultConfig()
	cfg.SPEs = sc.SPEs
	cfg.Mem.Latency = opt.Latency
	cfg.MaxCycles = maxCycles
	m, err := opt.Pool.Get(cfg, prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	if opt.DiffBurst {
		slowCfg := cfg
		slowCfg.SPU.BurstMax = -1 // single-step slow path (see spu.Config.BurstMax)
		sm, err := opt.Pool.Get(slowCfg, prog)
		if err != nil {
			return nil, nil, err
		}
		sres, err := sm.Run()
		if err != nil {
			return nil, nil, fmt.Errorf("single-step run: %w", err)
		}
		if d := diffRuns(res, sres, m, sm); d != "" {
			return nil, nil, fmt.Errorf("burst/single-step divergence: %s", d)
		}
		opt.Pool.Put(sm)
	}
	if opt.DiffCheckpoint {
		if err := diffCheckpoint(opt, cfg, prog, res, m); err != nil {
			return nil, nil, err
		}
	}
	return res, m, nil
}

// diffCheckpoint re-executes prog with a snapshot/restore seam at the
// halfway boundary: run a donor to want.Cycles/2, capture, restore the
// blob into a recycled machine, re-encode it and finish. A re-encoded
// blob that differs from the restored one, or any difference from the
// uninterrupted run — a number, a byte of memory — fails the check.
func diffCheckpoint(opt CheckOptions, cfg cell.Config, prog *program.Program, want *cell.Result, wantM *cell.Machine) error {
	div := want.Cycles / 2
	donor, err := opt.Pool.Get(cfg, prog)
	if err != nil {
		return err
	}
	_, st, err := donor.RunTo(div)
	if err != nil {
		return fmt.Errorf("checkpoint donor: %w", err)
	}
	var got *cell.Result
	var gotM *cell.Machine
	if st == cell.StepDone {
		// The run quiesced before the halfway boundary (post-completion
		// drains can make Cycles/2 unreachable); nothing to seam, but the
		// donor's outcome must still match.
		if got, err = donor.Finish(); err != nil {
			return err
		}
		gotM = donor
	} else {
		key := cell.SnapshotKey(cfg, prog, div)
		blob, err := donor.EncodeSnapshot(key)
		if err != nil {
			return fmt.Errorf("checkpoint capture: %w", err)
		}
		opt.Pool.Put(donor)
		fresh, err := opt.Pool.Get(cfg, prog)
		if err != nil {
			return err
		}
		if err := fresh.RestoreSnapshot(blob, key); err != nil {
			return fmt.Errorf("checkpoint restore: %w", err)
		}
		// The codec is a fixed point: the restored machine encodes to
		// the bytes it was restored from.
		again, err := fresh.EncodeSnapshot(key)
		if err != nil {
			return fmt.Errorf("checkpoint re-encode: %w", err)
		}
		if !bytes.Equal(again, blob) {
			return fmt.Errorf("checkpoint re-encode: the restored machine encodes to other bytes than its blob")
		}
		if got, err = fresh.Run(); err != nil {
			return fmt.Errorf("restored run: %w", err)
		}
		gotM = fresh
	}
	if d := diffRuns(want, got, wantM, gotM); d != "" {
		return fmt.Errorf("checkpoint divergence: %s", d)
	}
	opt.Pool.Put(gotM)
	return nil
}

// diffRuns compares every reported number, the guest profiles and the
// final memory images of two runs of the same program, on machines am
// and bm, and describes the first difference ("" when identical).
func diffRuns(a, b *cell.Result, am, bm *cell.Machine) string {
	switch {
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles)
	case !reflect.DeepEqual(a.Tokens, b.Tokens):
		return fmt.Sprintf("tokens %v vs %v", a.Tokens, b.Tokens)
	case !reflect.DeepEqual(a.Agg, b.Agg):
		return fmt.Sprintf("aggregate SPU stats %+v vs %+v", a.Agg, b.Agg)
	case !reflect.DeepEqual(a.SPUs, b.SPUs):
		return "per-SPU stats differ"
	case !reflect.DeepEqual(a.LSEs, b.LSEs):
		return "LSE stats differ"
	case !reflect.DeepEqual(a.MFCs, b.MFCs):
		return "MFC stats differ"
	case !reflect.DeepEqual(a.DSEs, b.DSEs):
		return "DSE stats differ"
	case a.Mem != b.Mem:
		return fmt.Sprintf("memory stats %+v vs %+v", a.Mem, b.Mem)
	case a.Net != b.Net:
		return fmt.Sprintf("network stats %+v vs %+v", a.Net, b.Net)
	case !am.Profile().Equal(bm.Profile()):
		return "guest cycle profiles differ"
	}
	if addr, equal := mem.FirstDiff(am.MemSparse(), bm.MemSparse()); !equal {
		return fmt.Sprintf("memory at %#x", addr)
	}
	return ""
}

func tokensEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckScenario generates, oracles, simulates and cross-checks one
// scenario. A nil error means all three executions agreed byte for
// byte and every invariant held.
func CheckScenario(sc Scenario, opt CheckOptions) (*Report, error) {
	sc = sc.Normalize()
	opt = opt.withDefaults()

	prog, err := Generate(sc)
	if err != nil {
		return nil, diverged(sc, "generate", "%v", err)
	}

	oracleRes, err := RunOracle(prog, maxSteps)
	if err != nil {
		return nil, diverged(sc, "oracle", "%v", err)
	}

	orig, origM, err := runSim(sc, opt, prog)
	if err != nil {
		return nil, diverged(sc, "sim-orig", "%v", err)
	}
	if orig.CheckErr != nil {
		return nil, diverged(sc, "sim-orig", "functional check: %v", orig.CheckErr)
	}

	pfProg, err := opt.Transform(prog)
	if err != nil {
		return nil, diverged(sc, "sim-pf", "transform: %v", err)
	}
	pf, pfM, err := runSim(sc, opt, pfProg)
	if err != nil {
		return nil, diverged(sc, "sim-pf", "%v", err)
	}
	if pf.CheckErr != nil {
		return nil, diverged(sc, "sim-pf", "functional check: %v", pf.CheckErr)
	}

	// Byte-identical results: tokens across all three executions...
	if !tokensEqual(oracleRes.Tokens, orig.Tokens) {
		return nil, diverged(sc, "compare", "tokens oracle=%v sim-orig=%v", oracleRes.Tokens, orig.Tokens)
	}
	if !tokensEqual(oracleRes.Tokens, pf.Tokens) {
		return nil, diverged(sc, "compare", "tokens oracle=%v sim-pf=%v", oracleRes.Tokens, pf.Tokens)
	}
	// ...and the entire final memory image. Whole-image comparison (not
	// just the addresses the oracle wrote) catches stray writes a buggy
	// transformation could emit to locations the original never touches.
	if addr, equal := mem.FirstDiff(oracleRes.Mem, origM.MemSparse()); !equal {
		return nil, diverged(sc, "compare", "memory diverges at %#x: oracle=%#x sim-orig=%#x",
			addr, oracleRes.Reader().Read32(addr&^3), origM.MemReader().Read32(addr&^3))
	}
	if addr, equal := mem.FirstDiff(oracleRes.Mem, pfM.MemSparse()); !equal {
		return nil, diverged(sc, "compare", "memory diverges at %#x: oracle=%#x sim-pf=%#x",
			addr, oracleRes.Reader().Read32(addr&^3), pfM.MemReader().Read32(addr&^3))
	}

	// Invariants. Deadlocks and runaways already surfaced as run errors
	// (machine fault, cycle cap, oracle budget); what remains is the
	// performance contract of the transformation.
	origStall := orig.Agg.Breakdown[stats.MemStall]
	pfStall := pf.Agg.Breakdown[stats.MemStall]
	if pfStall > origStall+origStall/4+stallSlack {
		return nil, diverged(sc, "invariant",
			"prefetch memory-stall cycles %d exceed original %d (+25%% +%d slack)",
			pfStall, origStall, stallSlack)
	}
	limit := sim.Cycle(guardRatio*float64(orig.Cycles)) + guardSlack
	if pf.Cycles > limit {
		return nil, diverged(sc, "invariant",
			"prefetch cycles %d exceed guard band %d (original %d, ratio %.1f, slack %d)",
			pf.Cycles, limit, orig.Cycles, guardRatio, guardSlack)
	}

	// All comparisons done: the machines and the memory images (theirs
	// and the oracle's) may be reused.
	opt.Pool.Put(origM)
	opt.Pool.Put(pfM)
	oracleRes.Release()

	st := prefetch.Analyze(prog, pfProg)
	return &Report{
		Scenario:    sc,
		OrigCycles:  orig.Cycles,
		PFCycles:    pf.Cycles,
		OrigStall:   origStall,
		PFStall:     pfStall,
		OracleSteps: oracleRes.Steps,
		Threads:     orig.Agg.Threads,
		Decoupled:   st.DecoupledFraction(),
		CodeLen:     prog.CodeLen(),
	}, nil
}

// CheckSeed is CheckScenario over FromSeed.
func CheckSeed(seed uint64, opt CheckOptions) (*Report, error) {
	return CheckScenario(FromSeed(seed), opt)
}
