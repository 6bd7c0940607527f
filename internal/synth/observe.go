package synth

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/program"
)

// ObserveScenario re-runs sc's two simulations, the original program
// and its prefetch-transformed variant, with the timeline recorder
// (cell.Config.Record) on when timeline is set, and returns them as the
// runs "sim-orig <summary>" and "sim-pf <summary>" for obs.WriteTrace
// and obs.WriteProfile, each with the guest profile every machine
// keeps. Each program is simulated once. The machines are fresh (never
// pooled: a pooled machine's recorder and profile are cleared on
// reuse), and observing does not perturb results.
func ObserveScenario(sc Scenario, opt CheckOptions, timeline bool) ([]obs.Run, error) {
	summary := sc.Summary()
	sc = sc.Normalize()
	opt = opt.withDefaults()

	prog, err := Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("synth: generate seed %d: %w", sc.Seed, err)
	}
	pfProg, err := opt.Transform(prog)
	if err != nil {
		return nil, fmt.Errorf("synth: transform seed %d: %w", sc.Seed, err)
	}

	cfg := cell.DefaultConfig()
	cfg.SPEs = sc.SPEs
	cfg.Mem.Latency = opt.Latency
	cfg.MaxCycles = maxCycles
	cfg.Record = timeline

	var runs []obs.Run
	for _, v := range []struct {
		name string
		prog *program.Program
	}{{"sim-orig", prog}, {"sim-pf", pfProg}} {
		m, err := cell.New(cfg, v.prog)
		if err != nil {
			return nil, fmt.Errorf("synth: build %s: %w", v.name, err)
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("synth: observe %s: %w", v.name, err)
		}
		runs = append(runs, obs.Run{Label: v.name + " " + summary, SPEs: sc.SPEs,
			Prog: v.prog, Rec: res.Rec, Prof: m.Profile()})
	}
	return runs, nil
}
