package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
)

// checkpointFile is the on-disk container: everything needed to
// rebuild the identical machine (the snapshot blob alone is not
// enough — restore recomputes the content-addressed key from the
// rebuilt config and program and refuses a mismatch), plus the
// uninterrupted run's outcome to verify against.
type checkpointFile struct {
	Bench    string    `json:"bench"`
	SPEs     int       `json:"spes"`
	Latency  int       `json:"latency"`
	Quick    bool      `json:"quick"`
	Seed     uint64    `json:"seed"`
	Prefetch bool      `json:"prefetch"`
	Div      sim.Cycle `json:"div"`
	Expect   expected  `json:"expect"`
	Snapshot []byte    `json:"snapshot"` // base64 via encoding/json
}

type expected struct {
	Cycles sim.Cycle `json:"cycles"`
	Tokens []int64   `json:"tokens"`
	Agg    stats.SPU `json:"agg"`
}

// setupSnap: `dta snap` captures a machine snapshot mid-run into a file
// and restores it in a different process — the cross-process half of
// the checkpoint contract (the in-process half lives in the cell and
// harness tests). CI's checkpoint smoke runs a capture, then a restore
// in a fresh process, and fails unless the restored run's final
// statistics are identical to the uninterrupted run recorded at
// capture time.
//
//	dta snap -capture -bench mmul -quick -prefetch -o /tmp/mmul.ckpt
//	dta snap -restore /tmp/mmul.ckpt
func setupSnap(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "bench", "quick", "seed", "spes", "latency", "prefetch")
	capture := fs.Bool("capture", false, "run -bench, snapshot it at -frac of its cycle count and write the checkpoint file")
	restore := fs.String("restore", "", "restore a checkpoint file, finish the run and verify it against the recorded outcome")
	frac := fs.Float64("frac", 0.5, "capture point as a fraction of the run's cycle count (with -capture)")
	out := fs.String("o", "checkpoint.json", "output path (with -capture)")
	return func(args []string) error {
		switch {
		case len(args) > 0:
			return usagef("unexpected operands %q", args)
		case *capture == (*restore != ""):
			return usagef("want exactly one of -capture or -restore")
		case *capture && sh.bench == "":
			return usagef("-capture needs -bench")
		case *capture:
			return doCapture(checkpointFile{
				Bench: sh.bench, SPEs: sh.spes, Latency: sh.latency, Quick: sh.quick,
				Seed: sh.seed, Prefetch: sh.prefetch,
			}, *frac, *out)
		default:
			return doRestore(*restore)
		}
	}
}

// machine rebuilds the program and configuration a checkpoint file
// describes, as the experiments build them. Both capture and restore go
// through it, so the machines agree by construction — which the
// snapshot key then enforces.
func (cf checkpointFile) machine() (*program.Program, cell.Config, error) {
	opt := harness.Options{SPEs: cf.SPEs, Latency: cf.Latency, Quick: cf.Quick, Seed: cf.Seed}
	prog, err := harness.BenchProgram(opt, cf.Bench, 0, cf.Prefetch)
	return prog, harness.MachineConfig(opt), err
}

func doCapture(cf checkpointFile, frac float64, out string) error {
	prog, cfg, err := cf.machine()
	if err != nil {
		return err
	}
	cold, err := cell.New(cfg, prog)
	if err != nil {
		return err
	}
	res, err := cold.Run()
	if err != nil {
		return err
	}
	if res.CheckErr != nil {
		return fmt.Errorf("functional check: %w", res.CheckErr)
	}
	cf.Expect = expected{Cycles: res.Cycles, Tokens: res.Tokens, Agg: res.Agg}

	cf.Div = sim.Cycle(frac * float64(res.Cycles))
	donor, err := cell.New(cfg, prog)
	if err != nil {
		return err
	}
	at, st, err := donor.RunTo(cf.Div)
	if err != nil {
		return err
	}
	if st == cell.StepDone {
		return fmt.Errorf("run completed at cycle %d before the capture point %d", at, cf.Div)
	}
	key := cell.SnapshotKey(cfg, prog, cf.Div)
	if cf.Snapshot, err = donor.EncodeSnapshot(key); err != nil {
		return err
	}
	data, err := json.Marshal(cf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("dta snap: captured %s at cycle %d of %d (%d snapshot bytes) to %s\n",
		cf.Bench, at, res.Cycles, len(cf.Snapshot), out)
	return nil
}

func doRestore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	prog, cfg, err := cf.machine()
	if err != nil {
		return err
	}
	m, err := cell.New(cfg, prog)
	if err != nil {
		return err
	}
	key := cell.SnapshotKey(cfg, prog, cf.Div)
	if err := m.RestoreSnapshot(cf.Snapshot, key); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	skipped := m.Now()
	res, err := m.Run()
	if err != nil {
		return err
	}
	if res.CheckErr != nil {
		return fmt.Errorf("functional check: %w", res.CheckErr)
	}
	switch {
	case res.Cycles != cf.Expect.Cycles:
		return fmt.Errorf("restored run took %d cycles, capture-time run took %d", res.Cycles, cf.Expect.Cycles)
	case !reflect.DeepEqual(res.Tokens, cf.Expect.Tokens):
		return fmt.Errorf("restored tokens %v, capture-time %v", res.Tokens, cf.Expect.Tokens)
	case !reflect.DeepEqual(res.Agg, cf.Expect.Agg):
		return fmt.Errorf("restored aggregate statistics differ from capture-time run")
	}
	fmt.Printf("dta snap: restored %s at cycle %d, finished at %d — identical to the capture-time run\n",
		cf.Bench, skipped, res.Cycles)
	return nil
}
