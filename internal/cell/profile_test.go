package cell_test

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
)

// profileRun is one program on one machine configuration.
type profileRun struct {
	name string
	cfg  cell.Config
	prog *program.Program
}

// profileRuns returns mmul-pf on two SPEs, every pinned corpus seed's
// original and prefetch-transformed program, and the six paper runs
// (three benchmarks, original and prefetching) at quick size.
func profileRuns(t *testing.T) []profileRun {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.SPEs = 2
	cfg.MaxCycles = 10_000_000
	runs := []profileRun{{"mmul-pf", cfg, pfProgram(t)}}
	for _, seed := range synth.CorpusSeeds() {
		sc := synth.FromSeed(seed).Normalize()
		prog, err := synth.Generate(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pf, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: transform: %v", seed, err)
		}
		cfg := cell.DefaultConfig()
		cfg.SPEs = sc.SPEs
		cfg.MaxCycles = 100_000_000
		runs = append(runs, profileRun{sc.Summary() + " orig", cfg, prog}, profileRun{sc.Summary() + " pf", cfg, pf})
	}
	opt := harness.Options{Quick: true}.WithDefaults()
	for _, bench := range []string{"mmul", "zoom", "bitcnt"} {
		for _, pf := range []bool{false, true} {
			prog, err := harness.BenchProgram(opt, bench, 0, pf)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, profileRun{bench, harness.MachineConfig(opt), prog})
		}
	}
	return runs
}

// TestProfileMatchesStats cross-checks the profile every machine keeps
// against the statistics each SPU folds from it: the SPEs' folded
// causes must sum to the profile's rows per cause, the folded buckets
// must be the causes' fold, the idle row must hold exactly the idle
// cycles, and a prefetch-transformed run must attribute cycles to PF
// blocks.
func TestProfileMatchesStats(t *testing.T) {
	pool := cell.NewPool()
	for _, r := range profileRuns(t) {
		m, err := pool.Get(r.cfg, r.prog)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res, err := m.Run()
		if err != nil || res.CheckErr != nil {
			t.Fatalf("%s: run %v, check %v", r.name, err, res.CheckErr)
		}
		prof := m.Profile()
		if prof.Causes() != res.Agg.Causes {
			t.Errorf("%s: profile causes %v != aggregate %v", r.name, prof.Causes(), res.Agg.Causes)
		}
		if res.Agg.Causes.Buckets() != res.Agg.Breakdown {
			t.Errorf("%s: cause fold %v != breakdown %v", r.name, res.Agg.Causes.Buckets(), res.Agg.Breakdown)
		}
		var pfCycles, idleCycles int64
		for _, s := range prof.Samples() {
			if s.Loc == stats.IdleLoc {
				idleCycles = s.Total
			} else if s.Loc.Block == uint8(program.PF) {
				pfCycles += s.Total
			}
		}
		if idleCycles != res.Agg.Causes[stats.CauseIdle] {
			t.Errorf("%s: idle row %d != idle cycles %d", r.name, idleCycles, res.Agg.Causes[stats.CauseIdle])
		}
		if res.Agg.PFBlocks > 0 && pfCycles == 0 {
			t.Errorf("%s: %d PF blocks ran and no cycle is attributed to one", r.name, res.Agg.PFBlocks)
		}
		pool.Put(m)
	}
}

// TestProfileSurvivesReset: a machine's profile is its own store, kept
// across Reset (the SPUs' wiring stays valid) and emptied by it, so a
// pooled machine never leaks a previous run's samples — not even when
// the next program is shorter, and then longer again: one pooled machine
// runs bitcnt-pf (229 instructions), mmul (73) and bitcnt-pf again, and
// each profile must equal a fresh machine's.
func TestProfileSurvivesReset(t *testing.T) {
	opt := harness.Options{Quick: true}.WithDefaults()
	cfg := harness.MachineConfig(opt)
	build := func(bench string, pf bool) *program.Program {
		prog, err := harness.BenchProgram(opt, bench, 0, pf)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	bitcntPF, mmul := build("bitcnt", true), build("mmul", false)
	if bitcntPF.CodeLen() != 229 || mmul.CodeLen() != 73 {
		t.Fatalf("code lengths %d and %d, want 229 and 73", bitcntPF.CodeLen(), mmul.CodeLen())
	}
	pool := cell.NewPool()
	var store *stats.Profile
	for i, prog := range []*program.Program{bitcntPF, mmul, bitcntPF} {
		fresh, err := cell.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		m, err := pool.Get(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && m.Profile().Len() != 0 {
			t.Fatalf("run %d: Reset left samples in the profile", i)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && m.Profile() != store {
			t.Fatalf("run %d: Reset replaced the profile store (SPU wiring would be stale)", i)
		}
		store = m.Profile()
		if !reflect.DeepEqual(m.Profile().Samples(), fresh.Profile().Samples()) {
			t.Errorf("run %d: the pooled machine's profile differs from a fresh machine's", i)
		}
		pool.Put(m)
	}
}
