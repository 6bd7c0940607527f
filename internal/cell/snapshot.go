package cell

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/dta"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/snap"
)

// SnapshotVersion is bumped whenever the machine snapshot layout
// changes; restores of a mismatched version fail with
// snap.VersionError instead of misdecoding.
const SnapshotVersion = 3

// SnapshotKey derives the content-addressed checkpoint key for (cfg,
// prog, divergence cycle): two runs with equal keys have byte-identical
// state at every cycle up to div, so a snapshot captured under one may
// seed the other. The key doubles as the envelope identity, making a
// key collision across different machines detectable at restore.
func SnapshotKey(cfg Config, prog *program.Program, div sim.Cycle) string {
	h := sha256.New()
	fmt.Fprintf(h, "celldta-snap/%d\n", SnapshotVersion)
	fmt.Fprintf(h, "cfg:%+v\n", cfg)
	d := prog.Digest()
	h.Write(d[:])
	fmt.Fprintf(h, "\ndiv:%d\n", div)
	return hex.EncodeToString(h.Sum(nil))
}

// Knobs are the configuration parameters that may diverge at a
// checkpoint: both are re-read by their component on every request, so
// flipping them between engine passes is well-defined and applies
// identically on a cold run and a forked one. Zero or negative values
// leave the parameter unchanged.
type Knobs struct {
	MemLatency    int // mem.Config.Latency
	MFCCmdLatency int // mfc.Config.CmdLatency
}

// ApplyKnobs flips the divergence knobs at the current cycle. The
// machine's construction Config is unchanged — Reset restores the
// original values, so pooled reuse stays sound.
func (m *Machine) ApplyKnobs(k Knobs) {
	if k.MemLatency > 0 && k.MemLatency != m.cfg.Mem.Latency {
		m.memory.SetLatency(k.MemLatency)
		m.knobbed = true
	}
	if k.MFCCmdLatency > 0 && k.MFCCmdLatency != m.cfg.MFC.CmdLatency {
		for _, spe := range m.spes {
			spe.MFC.SetCmdLatency(k.MFCCmdLatency)
		}
		m.knobbed = true
	}
}

// Knobbed reports whether ApplyKnobs changed a parameter away from the
// construction configuration (cleared by Reset).
func (m *Machine) Knobbed() bool { return m.knobbed }

// Now returns the engine clock (the cycle a snapshot would capture).
func (m *Machine) Now() sim.Cycle { return m.eng.Now() }

// RunTo advances the run to the first natural event boundary at or
// beyond target — the quiescence-horizon capture point: Step's slice
// boundaries land on engine event cycles that no component can observe
// (see sim.Engine.RunUntil), so the machine state at the returned cycle
// is exactly the state a run-to-completion execution passes through.
// Returns StepDone if the run completes before reaching target.
func (m *Machine) RunTo(target sim.Cycle) (sim.Cycle, StepStatus, error) {
	for m.eng.Now() < target {
		st, err := m.Step(target - m.eng.Now())
		if err != nil {
			return m.eng.Now(), 0, err
		}
		if st == StepDone {
			return m.eng.Now(), StepDone, nil
		}
	}
	return m.eng.Now(), StepBudget, nil
}

// CanSnapshot reports whether the machine is in a serialisable state:
// timeline recording buffers are not serialised, and a faulted or
// post-drain machine has nothing meaningful to capture.
func (m *Machine) CanSnapshot() error {
	if m.cfg.Record {
		return fmt.Errorf("cell: snapshot with timeline recording enabled")
	}
	if m.faultErr != nil {
		return fmt.Errorf("cell: snapshot of a faulted machine: %w", m.faultErr)
	}
	if m.drained {
		return fmt.Errorf("cell: snapshot after the post-completion DMA drain")
	}
	return nil
}

// snapshotPPE serialises the host processor's token state. Tokens are
// written in arrival order, which restores both the map and the order
// slice.
func (p *PPE) snapshotPPE(w *snap.Writer) {
	w.Bool(p.started)
	w.I64(p.rootFP)
	w.Int(len(p.order))
	for _, slot := range p.order {
		w.I64(slot)
		w.I64(p.tokens[slot])
	}
	w.I64(int64(p.doneAt))
	w.Bool(p.finished)
}

func (p *PPE) restorePPE(r *snap.Reader) error {
	p.started = r.Bool()
	p.rootFP = r.I64()
	clear(p.tokens)
	p.order = p.order[:0]
	n := r.Int()
	for i := 0; i < n; i++ {
		slot := r.I64()
		v := r.I64()
		p.tokens[slot] = v
		p.order = append(p.order, slot)
	}
	p.doneAt = sim.Cycle(r.I64())
	p.finished = r.Bool()
	return r.Err()
}

// Snapshot serialises the complete machine state between Step calls:
// engine schedule, a deduplicated thread registry, and every
// component's mutable state. Call only at a cycle RunTo (or Step)
// returned — the engine must be idle between passes.
func (m *Machine) Snapshot(w *snap.Writer) error {
	if err := m.CanSnapshot(); err != nil {
		return err
	}
	if err := m.eng.Snapshot(w); err != nil {
		return err
	}
	// Thread registry: every thread reachable from an LSE or SPU, each
	// serialised once; components refer to threads by registry index so
	// shared identity (LSE slot + SPU.cur is the same object) survives
	// the round trip.
	var order []*dta.Thread
	idx := make(map[*dta.Thread]int32)
	visit := func(th *dta.Thread) {
		if _, ok := idx[th]; !ok {
			idx[th] = int32(len(order))
			order = append(order, th)
		}
	}
	for _, spe := range m.spes {
		spe.LSE.Threads(visit)
		spe.SPU.Threads(visit)
	}
	w.Int(len(order))
	for _, th := range order {
		dta.SnapshotThread(w, th)
	}
	index := func(th *dta.Thread) int32 {
		i, ok := idx[th]
		if !ok {
			panic("cell: snapshot found a thread outside the registry")
		}
		return i
	}
	m.net.Snapshot(w)
	m.memory.Snapshot(w)
	for _, spe := range m.spes {
		spe.LS.Snapshot(w)
		spe.Alloc.Snapshot(w)
		spe.LSE.Snapshot(w, index)
		spe.MFC.Snapshot(w)
		spe.SPU.Snapshot(w, index)
	}
	for _, d := range m.dses {
		d.Snapshot(w)
	}
	m.ppe.snapshotPPE(w)
	m.prof.Snapshot(w)
	return nil
}

// Restore rewinds the machine to a snapshot. The machine must have the
// same configuration and program as the one that produced it (enforced
// end-to-end by the envelope identity — see RestoreSnapshot); component
// restores check the structural invariants they can see locally.
func (m *Machine) Restore(r *snap.Reader) error {
	if err := m.CanSnapshot(); err != nil {
		return err
	}
	if err := m.eng.Restore(r); err != nil {
		return err
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	threads := make([]*dta.Thread, n)
	for i := range threads {
		threads[i] = dta.RestoreThread(r)
	}
	if err := r.Err(); err != nil {
		return err
	}
	lookup := func(ref int32) *dta.Thread {
		if ref < 0 || int(ref) >= len(threads) {
			return nil
		}
		return threads[ref]
	}
	if err := m.net.Restore(r); err != nil {
		return err
	}
	if err := m.memory.Restore(r); err != nil {
		return err
	}
	for _, spe := range m.spes {
		if err := spe.LS.Restore(r); err != nil {
			return err
		}
		if err := spe.Alloc.Restore(r); err != nil {
			return err
		}
		if err := spe.LSE.Restore(r, lookup); err != nil {
			return err
		}
		if err := spe.MFC.Restore(r); err != nil {
			return err
		}
		if err := spe.SPU.Restore(r, lookup); err != nil {
			return err
		}
	}
	for _, d := range m.dses {
		if err := d.Restore(r); err != nil {
			return err
		}
	}
	if err := m.ppe.restorePPE(r); err != nil {
		return err
	}
	if err := m.prof.Restore(r); err != nil {
		return err
	}
	m.faultErr = nil
	m.drained = false
	m.endAt = 0
	return r.Err()
}

// EncodeSnapshot captures the machine into a self-describing,
// checksummed envelope carrying key as its identity (use SnapshotKey).
func (m *Machine) EncodeSnapshot(key string) ([]byte, error) {
	var w snap.Writer
	if err := m.Snapshot(&w); err != nil {
		return nil, err
	}
	return snap.Encode(SnapshotVersion, key, w.Bytes()), nil
}

// RestoreSnapshot decodes an envelope produced by EncodeSnapshot and
// rewinds the machine to it. The envelope's identity must equal key —
// recomputed by the caller for this machine's (config, program,
// divergence cycle) — so a snapshot can never be restored into a
// machine it was not captured from.
func (m *Machine) RestoreSnapshot(data []byte, key string) error {
	env, err := snap.Decode(data, SnapshotVersion)
	if err != nil {
		return err
	}
	if env.Identity != key {
		return fmt.Errorf("cell: snapshot identity mismatch: have %.16s…, want %.16s…", env.Identity, key)
	}
	r := snap.NewReader(env.Payload)
	if err := m.Restore(r); err != nil {
		return err
	}
	return r.ExpectEOF()
}
