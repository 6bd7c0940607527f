package sim

import "repro/internal/snap"

// Walk writes or reads the engine's scheduling state: the clock and each
// component's next due cycle. The heap's layout and slice capacities are
// performance-only: between Runs every entry's pass is 0, so scheduling
// behaviour depends solely on the {(component, due cycle)} multiset plus
// the (cycle, registration index) total order, and the multiset is the
// whole state.
//
// The engine must be idle (between passes, as it always is between
// Machine.Step calls); snapshotting from inside a Tick is an error. A
// read needs an engine with the same registered components (same count,
// same order — the machine configuration guarantees it); all Handles
// remain valid, exactly as across Reset.
func (e *Engine) Walk(c *snap.Codec) {
	if !c.Reading() && e.ticking != notQueued {
		c.Fail("sim: snapshot inside a pass")
	}
	if !c.Reading() && e.stopped {
		c.Fail("sim: snapshot of a stopped engine")
	}
	now := e.now
	snap.Int(c, &now)
	due := make([]Cycle, len(e.comps))
	for i := range due {
		due[i] = e.NextScheduled(int32(i))
	}
	snap.Fixed(c, "sim: components", due, snap.Int[Cycle])
	if !c.Reading() || c.Err() != nil {
		return
	}
	e.rewind(now)
	for i, at := range due {
		if at != Never {
			// A due cycle before the clock runs on the clock, as a wake
			// in the past does.
			e.schedule(entry{at: max(at, now), idx: int32(i)})
		}
	}
}
