package sim

import (
	"fmt"

	"repro/internal/snap"
)

// Snapshot serialises the engine's scheduling state: the clock and each
// component's next due cycle. The internal layout — which entries sit
// in the uniform-cycle bucket versus the heap, tombstones, slice
// capacities — is performance-only: scheduling behaviour depends solely
// on the {(component, due cycle)} multiset plus the (cycle,
// registration index) total order, so the multiset is the whole state.
//
// The engine must be idle (between passes, as it always is between
// Machine.Step calls); snapshotting from inside a Tick is an error.
func (e *Engine) Snapshot(w *snap.Writer) error {
	if e.running {
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
	// Clear the schedule the way Reset does, keeping backing arrays.
	e.heap = e.heap[:0]
	for i := range e.pos {
		e.pos[i] = notQueued
	}
	e.nextList = e.nextList[:0]
	e.nextLive = 0
	e.nextSorted = true
	e.bucketSeq++ // invalidates every inNextSeq entry
	e.passList = e.passList[:0]
	e.passCursor = 0
	e.ticking = notQueued
	e.running = false
	e.stopped = false
	e.stopAt = 0
	e.now = now
	clear(e.ticks)
	for i := 0; i < n; i++ {
		at := Cycle(r.I64())
		if at != Never {
			e.schedule(int32(i), at)
		}
	}
	return r.Err()
}
