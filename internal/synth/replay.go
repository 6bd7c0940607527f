package synth

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/program"
	"repro/internal/sim"
)

// Replay is a live machine rewound to just before a cycle of interest:
// the time-travel handle for debugging a fuzz reproducer. The machine
// is paused at At — the last event boundary strictly before the
// requested target (or before completion, whichever comes first) — and
// may be stepped forward with cell.Machine.Step to watch the suspect
// window unfold. Snapshot re-seeds the same state, so the window can
// be replayed as many times as the investigation needs:
//
//	r, _ := synth.ReplayTo(sc, opt, true, divergeCycle)
//	r.Machine.Step(1) ... // watch the divergence happen
//	r.Rewind()            // and again
type Replay struct {
	Machine  *cell.Machine
	At       sim.Cycle // boundary the machine is paused at (< Target)
	Target   sim.Cycle // the cycle that was asked for
	Snapshot []byte    // encoded image of the paused state
	Key      string    // its cell.SnapshotKey (for RestoreSnapshot)
}

// Rewind restores the machine to the paused boundary, undoing any
// stepping done since the Replay was produced (or the previous Rewind).
func (r *Replay) Rewind() error {
	return r.Machine.RestoreSnapshot(r.Snapshot, r.Key)
}

// Replayer is a bisection session over one scenario's simulation: it
// owns one machine and a store of boundary snapshots accumulated across
// ReplayTo probes, so probing cycle T costs re-simulation only from the
// warmest captured boundary below T — a bisection's probes converge, so
// each one starts ever closer to its target and the whole search is
// O(log) re-simulation instead of one cold run per probe.
//
// Successive ReplayTo calls reuse the one machine: a new probe
// invalidates the previous Replay's paused state (its Snapshot/Key
// remain valid for RestoreSnapshot). Like a machine, a Replayer is
// confined to one goroutine.
type Replayer struct {
	sc    Scenario
	cfg   cell.Config
	prog  *program.Program
	m     *cell.Machine
	snaps map[string][]byte // boundary snapshots by cell.SnapshotKey
	marks []sim.Cycle       // boundary cycles captured so far, ascending
}

// NewReplayer prepares a replay session for sc — the original program,
// or the prefetch-transformed one when transformed is set.
func NewReplayer(sc Scenario, opt CheckOptions, transformed bool) (*Replayer, error) {
	sc = sc.Normalize()
	opt = opt.withDefaults()
	prog, err := Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("synth: replay seed %d: %w", sc.Seed, err)
	}
	if transformed {
		if prog, err = opt.Transform(prog); err != nil {
			return nil, fmt.Errorf("synth: replay seed %d: transform: %w", sc.Seed, err)
		}
	}
	cfg := cell.DefaultConfig()
	cfg.SPEs = sc.SPEs
	cfg.Mem.Latency = opt.Latency
	cfg.MaxCycles = opt.MaxCycles
	// The machine deliberately bypasses the pool: the caller keeps it
	// (and its memory image) alive for interactive inspection.
	m, err := cell.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{sc: sc, cfg: cfg, prog: prog, m: m, snaps: make(map[string][]byte)}
	if err := rp.capture(nil); err != nil {
		return nil, err
	}
	return rp, nil
}

// capture snapshots the machine's current boundary into the store and
// the mark list, and (when r is non-nil) points r at it.
func (rp *Replayer) capture(r *Replay) error {
	at := rp.m.Now()
	key := cell.SnapshotKey(rp.cfg, rp.prog, at)
	blob, err := rp.m.EncodeSnapshot(key)
	if err != nil {
		return fmt.Errorf("synth: replay capture at %d: %w", at, err)
	}
	rp.snaps[key] = blob
	i := sort.Search(len(rp.marks), func(i int) bool { return rp.marks[i] >= at })
	if i == len(rp.marks) || rp.marks[i] != at {
		rp.marks = append(rp.marks, 0)
		copy(rp.marks[i+1:], rp.marks[i:])
		rp.marks[i] = at
	}
	if r != nil {
		r.Snapshot, r.Key, r.At = blob, key, at
	}
	return nil
}

// seek restores the machine to the warmest captured boundary strictly
// below target, falling back to earlier marks (or a fresh machine) when
// a snapshot fails to restore.
func (rp *Replayer) seek(target sim.Cycle) error {
	i := sort.Search(len(rp.marks), func(i int) bool { return rp.marks[i] >= target })
	for i > 0 {
		at := rp.marks[i-1]
		key := cell.SnapshotKey(rp.cfg, rp.prog, at)
		if err := rp.m.RestoreSnapshot(rp.snaps[key], key); err == nil {
			return nil
		}
		// Unrestorable: forget the mark and try the next boundary down.
		rp.marks = append(rp.marks[:i-1], rp.marks[i:]...)
		i--
	}
	// No usable boundary below target: start cold.
	if err := rp.m.Reset(rp.prog); err != nil {
		return err
	}
	return rp.capture(nil)
}

// ReplayTo pauses the session's machine at the last event boundary
// strictly before target and returns the time-travel handle. The walk
// starts from the warmest snapshot already captured below target and
// captures each boundary it crosses (stride scales with the remaining
// distance, at most ~64 captures per probe), so repeated probes — a
// divergence bisection — pay only the gap between neighbouring probe
// points, not a cold run each.
func (rp *Replayer) ReplayTo(target sim.Cycle) (*Replay, error) {
	if err := rp.seek(target); err != nil {
		return nil, err
	}
	r := &Replay{Machine: rp.m, Target: target}
	if err := rp.capture(r); err != nil {
		return nil, err
	}
	stride := (target - rp.m.Now()) / 64
	if stride < 1 {
		stride = 1
	}
	for rp.m.Now() < target {
		budget := target - rp.m.Now()
		if budget > stride {
			budget = stride
		}
		st, err := rp.m.Step(budget)
		if err != nil {
			return nil, fmt.Errorf("synth: replay run at %d: %w", rp.m.Now(), err)
		}
		if st == cell.StepDone || rp.m.Now() >= target {
			break
		}
		if err := rp.capture(r); err != nil {
			return nil, err
		}
	}
	if err := r.Rewind(); err != nil {
		return nil, err
	}
	return r, nil
}

// Marks returns the boundary cycles captured so far, ascending — the
// restore points future probes can start from. Exposed so tests (and
// curious tooling) can assert that warm probes reuse earlier marks.
func (rp *Replayer) Marks() []sim.Cycle {
	out := make([]sim.Cycle, len(rp.marks))
	copy(out, rp.marks)
	return out
}

// ReplayTo rebuilds a scenario's simulation — the original program, or
// the prefetch-transformed one when transformed is set — and pauses it
// at the last event boundary strictly before target: the one-shot form
// of a Replayer session (fresh machine, private snapshot store). Use a
// Replayer directly when probing the same scenario repeatedly.
func ReplayTo(sc Scenario, opt CheckOptions, transformed bool, target sim.Cycle) (*Replay, error) {
	rp, err := NewReplayer(sc, opt, transformed)
	if err != nil {
		return nil, err
	}
	return rp.ReplayTo(target)
}
