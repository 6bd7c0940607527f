// Package sim provides the deterministic cycle-level simulation kernel on
// which the CellDTA machine model is built.
//
// The kernel is a hybrid between a plain cycle loop and a discrete-event
// simulator: every due Component is ticked in registration order, but a
// component that has nothing to do can report the next cycle at which it
// wants to run (or Never) and the engine skips dead time by advancing the
// clock directly to the earliest pending wake-up. Components that push
// work into one another (an SPU sending memory a request, an LSE
// handing its SPU a thread, ...) wake the consumer through its Handle.
//
// Scheduling is one indexed min-heap keyed by (wake cycle, pass,
// registration index). The engine ticks the heap root in place and then
// re-keys it with a single sift, so finding the next event is O(1),
// Handle.Wake is an O(log N) decrease-key, and a tick costs O(log N)
// whatever the number of registered components.
//
// Determinism: the engine has no goroutines, no maps in scheduling
// decisions and no wall-clock inputs. Identical configuration and inputs
// produce identical cycle-by-cycle behaviour. The deterministic contract
// is unchanged from the linear-scan scheduler it replaced:
//
//   - components due on the same cycle tick in registration order;
//   - a wake posted during a pass for the current cycle runs the target
//     within the same pass if it has not been ticked yet on this cycle,
//     and on an extra pass over the same cycle otherwise;
//   - time never rewinds: wakes in the past clamp to the current cycle.
//
// The pass in the key is that contract stated as heap order: it is 0 for
// every entry except wakes posted during a Tick for the current cycle,
// which take the ticking entry's pass when they target a component later
// in registration order and the pass after it otherwise.
package sim

import (
	"fmt"
	"math"
	"strings"
)

// Cycle is a point in simulated time, measured in SPU clock cycles.
type Cycle int64

// Never is returned from Component.Tick by components that only need to
// run again once another component wakes them.
const Never Cycle = math.MaxInt64

// Component is a hardware block ticked by the Engine.
type Component interface {
	// Name identifies the component in diagnostics.
	Name() string
	// Tick performs the component's work for cycle now and returns the
	// next cycle at which the component needs to be ticked. Returning a
	// cycle <= now is interpreted as now+1; return Never to sleep until
	// woken through a Handle.
	Tick(now Cycle) Cycle
}

// StateDumper is an optional interface for components that can describe
// their internal state; the engine collects the dumps when it detects a
// deadlock so that tests and users get an actionable diagnosis.
type StateDumper interface {
	DumpState() string
}

// Handle lets components schedule wake-ups for one another (or for
// themselves from outside Tick). Handles are obtained from
// Engine.Register.
type Handle struct {
	e   *Engine
	idx int32
}

// Wake schedules the component to be ticked no later than cycle at. A
// wake for the current cycle runs the component within the same cycle if
// it has not been ticked yet in this pass, and on the next engine pass
// over the same cycle otherwise; the engine never rewinds time.
func (h *Handle) Wake(at Cycle) {
	if h == nil || h.e == nil {
		return
	}
	h.e.wake(h.idx, at)
}

// ID returns the component's registration index — its identity for
// Engine.Passed and Engine.NextScheduled.
func (h *Handle) ID() int32 { return h.idx }

// Engine returns the engine the handle belongs to (nil for a detached
// handle) — for components that read the clock or ask Passed.
func (h *Handle) Engine() *Engine {
	if h == nil {
		return nil
	}
	return h.e
}

// notQueued marks a component that is not in the heap.
const notQueued int32 = -1

// entry is one scheduled component in the heap. The key is stored inline
// so comparisons stay within the heap's backing array.
type entry struct {
	at   Cycle
	pass uint32 // extra passes over cycle at; see the package comment
	idx  int32
}

// before orders entries by (cycle, pass, registration index); the index
// tie-break is what makes same-cycle ticks follow registration order.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pass != b.pass {
		return a.pass < b.pass
	}
	return a.idx < b.idx
}

// Engine drives a set of components through simulated time.
type Engine struct {
	comps []Component
	// heap is an indexed binary min-heap of scheduled components; pos[i]
	// is component i's position in it (notQueued while it sleeps). A
	// component stays in the heap while it ticks: it is the root, and no
	// wake posted during its Tick can key an entry before it.
	heap []entry
	pos  []int32
	now  Cycle
	// ticks[i] counts component i's Tick calls since the last Reset (or
	// snapshot restore): the engine events a run cost, by component. A host-side
	// measure, not simulation state — nothing simulated reads it.
	ticks []int64

	ticking  int32 // component currently inside Tick, notQueued outside
	selfWake Cycle // earliest self-wake posted during the current Tick

	// The engine's position, for components that do a future cycle's work
	// ahead of time (SliceEnd, Passed): the bound of the RunUntil call in
	// progress, and the key of the tick in progress — between ticks, of
	// the last one run.
	until Cycle
	inRun bool
	cur   entry

	stopped bool
	stopAt  Cycle
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{ticking: notQueued, cur: entry{idx: notQueued}}
}

// Register adds a component to the engine and returns its wake handle.
// Components are ticked in registration order within a cycle, which is
// part of the deterministic contract. The new component is scheduled for
// the current cycle.
func (e *Engine) Register(c Component) *Handle {
	idx := int32(len(e.comps))
	e.comps = append(e.comps, c)
	e.pos = append(e.pos, notQueued)
	e.ticks = append(e.ticks, 0)
	e.wake(idx, e.now)
	return &Handle{e: e, idx: idx}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Ticks returns how many times component id has been ticked since the
// engine was last Reset or Restored — the per-component event count that
// host time moves with. It is not part of a snapshot: a restored run
// counts from its restore point.
func (e *Engine) Ticks(id int32) int64 { return e.ticks[id] }

// SliceEnd returns the bound of the RunUntil call in progress: no event
// at or past it runs before that call returns, so a component may do
// work of an earlier cycle ahead of time and the state at the slice's
// boundary is still the one an unsliced run passes through. Outside
// RunUntil it is the clock: nothing may run ahead. A Resume after a Stop
// continues the slice, so it must be followed by RunUntil with the same
// bound (as Machine.StepUntil does).
func (e *Engine) SliceEnd() Cycle {
	if e.inRun {
		return e.until
	}
	return e.now
}

// Passed reports whether the engine has reached component id's turn in
// the first pass over cycle at: at is before the clock, or at is the
// clock and the tick in progress — between RunUntil calls, the last tick
// run — comes at or after that turn in (cycle, pass, registration
// index) order. A component that did cycle at's work ahead of time asks
// it to tell whether a tick of its own on that cycle would have run yet,
// for instance at a Stop.
func (e *Engine) Passed(id int32, at Cycle) bool {
	return at < e.now || at == e.now && !e.cur.before(entry{at: at, idx: id})
}

// NumComponents returns the number of registered components; their ids
// are 0..NumComponents()-1 in registration order.
func (e *Engine) NumComponents() int { return len(e.comps) }

// ComponentName returns the Name of component id.
func (e *Engine) ComponentName(id int32) string { return e.comps[id].Name() }

// NextScheduled returns the next cycle at which component id is due to
// run: the current cycle while it is ticking or still pending on the
// current cycle, its heap slot otherwise, and Never when it sleeps until
// woken. A snapshot records it for every component.
func (e *Engine) NextScheduled(id int32) Cycle {
	if p := e.pos[id]; p != notQueued {
		return e.heap[p].at
	}
	return Never
}

// Reset returns the engine to cycle 0 with every registered component
// scheduled for the first pass, exactly as if each had just been
// registered — the scheduling half of machine reuse. Component state is
// the components' own business; the engine only rewinds time and the
// queue. All existing Handles remain valid.
func (e *Engine) Reset() {
	e.rewind(0)
	for i := range e.comps {
		e.schedule(entry{at: 0, idx: int32(i)})
	}
}

// rewind empties the schedule and sets the clock to now, keeping backing
// arrays.
func (e *Engine) rewind(now Cycle) {
	e.now = now
	e.stopped = false
	e.stopAt = 0
	e.heap = e.heap[:0]
	for i := range e.pos {
		e.pos[i] = notQueued
	}
	e.ticking = notQueued
	e.inRun = false
	e.cur = entry{at: now, idx: notQueued} // nothing has run on the clock's cycle
	clear(e.ticks)
}

// Stop makes Run return as soon as the current Tick does. The components
// still due on this cycle stay scheduled for it, and a Resume + Run ticks
// them in one pass in registration order. Stop is typically called by
// the component that detects overall completion (the PPE mailbox in the
// CellDTA machine).
func (e *Engine) Stop() {
	e.stopped = true
	e.stopAt = e.now
}

// Resume clears a Stop so that Run can be called again — used to drain
// in-flight work (e.g. write-back DMA) after the completion signal.
func (e *Engine) Resume() { e.stopped = false }

// ErrDeadlock is returned by Run when no component has pending work but
// the stop condition was never signalled.
type ErrDeadlock struct {
	At    Cycle
	Dumps []string
}

func (e *ErrDeadlock) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at cycle %d: no component has pending work", e.At)
	for _, d := range e.Dumps {
		b.WriteString("\n  ")
		b.WriteString(d)
	}
	return b.String()
}

// ErrLimit is returned by Run when maxCycles elapses before Stop.
type ErrLimit struct {
	Limit Cycle
}

func (e *ErrLimit) Error() string {
	return fmt.Sprintf("sim: cycle limit %d reached before completion", e.Limit)
}

// RunStatus says why RunUntil returned.
type RunStatus uint8

const (
	// RunStopped: a component called Stop — the simulation completed (or
	// faulted; the caller owns that distinction).
	RunStopped RunStatus = iota
	// RunQuiescent: no component has pending work and Stop was never
	// called. Whether that is a deadlock or a benign drain is the
	// caller's call; DeadlockError packages the diagnosis.
	RunQuiescent
	// RunBudget: the budget elapsed with work still pending. The clock
	// already sits on the next event's cycle (>= the budget bound), so a
	// sequence of budgeted runs replays an unbounded Run exactly,
	// landing each slice boundary on a natural scheduling point.
	RunBudget
)

// RunUntil advances simulated time until Stop is called, no work
// remains, or the next event would run at a cycle >= until. It returns
// the cycle reached and why it returned. until == Never means no bound.
//
// The returned cycle is e.Now() except for RunStopped, where it is the
// Stop cycle. On RunBudget the engine has already advanced its clock to
// the first out-of-budget event (without running it), exactly where an
// unbounded Run would have placed it before the event's pass — so a
// paused engine sees precisely the schedule it would see
// run-to-completion, and slices cost nothing in fidelity.
func (e *Engine) RunUntil(until Cycle) (Cycle, RunStatus) {
	e.until, e.inRun = until, true
	end, st := e.runUntil(until)
	e.inRun = false
	return end, st
}

func (e *Engine) runUntil(until Cycle) (Cycle, RunStatus) {
	for !e.stopped {
		if len(e.heap) == 0 {
			return e.now, RunQuiescent
		}
		// No entry is keyed before the clock: wakes clamp to it and
		// re-keys land after it.
		e.now = e.heap[0].at
		if e.now >= until {
			return e.now, RunBudget
		}
		e.tickRoot()
	}
	// Fold the passes of the stopping cycle back to 0, so the components
	// still due on it tick in one pass in registration order on Resume.
	// Only entries at the current cycle carry a pass. Lowering a key with
	// siftUp moves only entries already visited, so one sweep folds all.
	for k := range e.heap {
		if e.heap[k].pass != 0 {
			e.heap[k].pass = 0
			e.siftUp(int32(k))
		}
	}
	return e.stopAt, RunStopped
}

// tickRoot ticks the component at the heap root on cycle e.now and
// re-keys it in place: one siftDown to its next cycle, or a pop when it
// sleeps until woken.
func (e *Engine) tickRoot() {
	e.cur = e.heap[0]
	i := e.cur.idx
	e.ticking = i
	e.selfWake = Never
	e.ticks[i]++
	nxt := min(e.comps[i].Tick(e.now), e.selfWake)
	e.ticking = notQueued
	if nxt == Never {
		e.popMin()
		return
	}
	// Wakes posted during the Tick (which may have grown the heap) key
	// after the root, so it is still at position 0.
	e.heap[0] = entry{at: max(nxt, e.now+1), idx: i}
	e.siftDown(0)
}

// NextEvent returns the cycle of the earliest pending event — the heap
// root — or Never when no component has pending work. It is the O(1)
// head computation RunUntil makes before every tick, exposed so a
// paused machine can say when it next has real work.
func (e *Engine) NextEvent() Cycle {
	if len(e.heap) == 0 {
		return Never
	}
	return e.heap[0].at
}

// DeadlockError packages a RunQuiescent outcome as the error Run
// returns, with component state dumps for diagnosis.
func (e *Engine) DeadlockError() *ErrDeadlock {
	return &ErrDeadlock{At: e.now, Dumps: e.dumpAll()}
}

// Run advances simulated time until Stop is called, no work remains
// (ErrDeadlock), or maxCycles elapses (ErrLimit). maxCycles <= 0 means no
// limit. It returns the cycle at which the simulation stopped.
func (e *Engine) Run(maxCycles Cycle) (Cycle, error) {
	limit := Never
	if maxCycles > 0 {
		limit = maxCycles
	}
	end, st := e.RunUntil(limit)
	switch st {
	case RunQuiescent:
		return end, e.DeadlockError()
	case RunBudget:
		return end, &ErrLimit{Limit: maxCycles}
	}
	return end, nil
}

// wake implements Handle.Wake for component i.
func (e *Engine) wake(i int32, at Cycle) {
	at = max(at, e.now) // never rewind time
	if e.ticking == notQueued {
		e.schedule(entry{at: at, idx: i})
		return
	}
	if i == e.ticking {
		// A self-wake during Tick merges with the returned next-run time
		// (and a same-cycle self-wake clamps to now+1, as the linear
		// sweep did by clearing the slot before ticking).
		e.selfWake = min(e.selfWake, at)
		return
	}
	en := entry{at: at, idx: i}
	if at == e.now {
		// Not ticked yet in this pass: joins it in registration order.
		// Already ticked (i < ticking): an extra pass over the cycle.
		en.pass = e.heap[0].pass
		if i < e.ticking {
			en.pass++
		}
	}
	e.schedule(en)
}

// schedule files en, pushing its component into the heap or decreasing
// its key. A later key than the scheduled one is a no-op (wakes merge
// via min).
func (e *Engine) schedule(en entry) {
	p := e.pos[en.idx]
	switch {
	case p == notQueued:
		p = int32(len(e.heap))
		e.heap = append(e.heap, en)
	case en.before(e.heap[p]):
		e.heap[p] = en
	default:
		return
	}
	e.siftUp(p)
}

func (e *Engine) siftUp(p int32) {
	h := e.heap
	en := h[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !en.before(h[parent]) {
			break
		}
		h[p] = h[parent]
		e.pos[h[p].idx] = p
		p = parent
	}
	h[p] = en
	e.pos[en.idx] = p
}

func (e *Engine) siftDown(p int32) {
	h := e.heap
	n := int32(len(h))
	en := h[p]
	for {
		child := 2*p + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(en) {
			break
		}
		h[p] = h[child]
		e.pos[h[p].idx] = p
		p = child
	}
	h[p] = en
	e.pos[en.idx] = p
}

// popMin removes the root.
func (e *Engine) popMin() {
	h := e.heap
	e.pos[h[0].idx] = notQueued
	last := len(h) - 1
	e.heap = h[:last]
	if last > 0 {
		h[0] = h[last]
		e.siftDown(0)
	}
}

// dumpAll collects state dumps from all components that provide them.
func (e *Engine) dumpAll() []string {
	var dumps []string
	for _, c := range e.comps {
		if d, ok := c.(StateDumper); ok {
			dumps = append(dumps, fmt.Sprintf("%s: %s", c.Name(), d.DumpState()))
		}
	}
	return dumps
}
