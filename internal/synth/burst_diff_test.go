package synth

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
)

// TestCorpusBurstDifferential is the slow-path/fast-path differential
// over the pinned corpus: every seed's original AND prefetch-transformed
// simulation runs twice — SPU burst fast path and single-step — and the
// checker fails unless cycles, stall breakdowns, every other statistic,
// tokens, the guest profile and the final memory image are identical
// (DiffBurst compares them inside runSim): the kernel's bulk profile
// charges must equal per-cycle ones exactly. The machines come from a
// pool, so this also exercises reuse on every run.
func TestCorpusBurstDifferential(t *testing.T) {
	opt := CheckOptions{DiffBurst: true, Pool: cell.NewPool()}
	for _, seed := range CorpusSeeds() {
		if _, err := CheckSeed(seed, opt); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestCorpusSmallWindowDifferential holds the burst kernel's window
// limit to the single-step reference: DiffBurst only ever compares the
// default 64k-cycle window, which no corpus run fills, so the paths
// that cut a bubble, a stall or an issue run at the limit would
// otherwise never execute under a differential. Every seed's original
// and prefetch-transformed program runs at BurstMax 2, 3, 5 and 17, and
// each must match the BurstMax -1 run in every reported number, the
// guest profile (which the kernel's run and loop steps charge in bulk)
// and the final memory image.
func TestCorpusSmallWindowDifferential(t *testing.T) {
	pool := cell.NewPool()
	for _, seed := range CorpusSeeds() {
		sc := FromSeed(seed).Normalize()
		prog, err := Generate(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pfProg, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: transform: %v", seed, err)
		}
		for name, p := range map[string]*program.Program{"orig": prog, "pf": pfProg} {
			cfg := cell.DefaultConfig()
			cfg.SPEs = sc.SPEs
			cfg.Mem.Latency = 150
			cfg.MaxCycles = 100_000_000
			run := func(burstMax int) (*cell.Result, *cell.Machine) {
				cfg.SPU.BurstMax = burstMax
				m, err := pool.Get(cfg, p)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("seed %d %s BurstMax %d: %v", seed, name, burstMax, err)
				}
				return res, m
			}
			ref, refM := run(-1)
			for _, w := range []int{2, 3, 5, 17} {
				got, gotM := run(w)
				if d := diffRuns(got, ref, gotM, refM); d != "" {
					t.Errorf("seed %d %s BurstMax %d: %s", seed, name, w, d)
				}
				pool.Put(gotM)
			}
			pool.Put(refM)
		}
	}
}
