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
const SnapshotVersion = 7

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
// beyond target — the capture point: Step's slice
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

// walk writes or reads the host processor's held arrivals and token
// state. Tokens go out in arrival order, which restores both the map and
// the order slice.
func (p *PPE) walk(c *snap.Codec) {
	p.arrivals.Walk(c)
	c.Bool(&p.started)
	snap.Int(c, &p.rootFP)
	if c.Reading() {
		clear(p.tokens)
	}
	snap.Slice(c, &p.order, func(c *snap.Codec, slot *int64) {
		snap.Int(c, slot)
		v := p.tokens[*slot]
		if snap.Int(c, &v); c.Reading() {
			p.tokens[*slot] = v
		}
	})
	snap.Int(c, &p.doneAt)
	c.Bool(&p.finished)
}

// walk writes or reads the complete machine state between Step calls:
// engine schedule, a deduplicated thread registry, and every
// component's mutable state. Call only at a cycle RunTo (or Step)
// returned — the engine must be idle between passes. A read needs a
// machine of the same configuration and program as the one that wrote
// the snapshot (enforced end-to-end by the envelope identity — see
// RestoreSnapshot); the component walks check the structural
// invariants they can see locally.
func (m *Machine) walk(c *snap.Codec) error {
	if err := m.CanSnapshot(); err != nil {
		return err
	}
	m.eng.Walk(c)
	var reg dta.Registry
	if !c.Reading() {
		// Every thread reachable from an LSE or SPU.
		for _, spe := range m.spes {
			spe.LSE.Threads(reg.Add)
			spe.SPU.Threads(reg.Add)
		}
	}
	reg.Walk(c)
	m.net.Walk(c, m.eng.Now())
	m.memory.Walk(c)
	for _, spe := range m.spes {
		spe.LS.Walk(c)
		spe.Alloc.Walk(c)
		spe.LSE.Walk(c, &reg)
		spe.MFC.Walk(c)
		spe.SPU.Walk(c, &reg)
	}
	for _, d := range m.dses {
		d.Walk(c)
	}
	m.ppe.walk(c)
	m.prof.Walk(c)
	if c.Reading() {
		m.faultErr = nil
		m.drained = false
		m.endAt = 0
	}
	return c.Err()
}

// EncodeSnapshot captures the machine into a self-describing,
// checksummed envelope carrying key as its identity (use SnapshotKey).
// The SPUs' run steps are charged to the profile first, so the blob's
// profile is complete.
func (m *Machine) EncodeSnapshot(key string) ([]byte, error) {
	m.chargeRuns()
	c := snap.NewEncoder()
	if err := m.walk(c); err != nil {
		return nil, err
	}
	return snap.Encode(SnapshotVersion, key, c.Payload()), nil
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
	c := snap.NewDecoder(env.Payload)
	if err := m.walk(c); err != nil {
		return err
	}
	return c.ExpectEOF()
}
