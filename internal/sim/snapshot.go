package sim

import (
	"fmt"

	"repro/internal/snap"
)

// Snapshot serialises the engine's scheduling state: the clock and each
// component's next due cycle. The heap's layout and slice capacities are
// performance-only: between Runs every entry's pass is 0, so scheduling
// behaviour depends solely on the {(component, due cycle)} multiset plus
// the (cycle, registration index) total order, and the multiset is the
// whole state.
//
// The engine must be idle (between passes, as it always is between
// Machine.Step calls); snapshotting from inside a Tick is an error.
func (e *Engine) Snapshot(w *snap.Writer) error {
	if e.ticking != notQueued {
		return fmt.Errorf("sim: snapshot inside a pass")
	}
	if e.stopped {
		return fmt.Errorf("sim: snapshot of a stopped engine")
	}
	w.I64(int64(e.now))
	w.Int(len(e.comps))
	for i := range e.comps {
		w.I64(int64(e.NextScheduled(int32(i))))
	}
	return nil
}

// Restore rewinds the engine to a snapshot taken by Snapshot on an
// engine with the same registered components (same count, same order —
// the machine configuration guarantees it). All Handles remain valid,
// exactly as across Reset.
func (e *Engine) Restore(r *snap.Reader) error {
	now := Cycle(r.I64())
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(e.comps) {
		return fmt.Errorf("sim: snapshot has %d components, engine has %d", n, len(e.comps))
	}
	e.rewind(now)
	for i := 0; i < n; i++ {
		if at := Cycle(r.I64()); at != Never {
			// A due cycle before the clock runs on the clock, as a wake
			// in the past does.
			e.schedule(entry{at: max(at, now), idx: int32(i)})
		}
	}
	return r.Err()
}
