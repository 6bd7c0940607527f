// Package sim provides the deterministic cycle-level simulation kernel on
// which the CellDTA machine model is built.
//
// The kernel is a hybrid between a plain cycle loop and a discrete-event
// simulator: every due Component is ticked in registration order, but a
// component that has nothing to do can report the next cycle at which it
// wants to run (or Never) and the engine skips dead time by advancing the
// clock directly to the earliest pending wake-up. Components that push
// work into one another (an SPU handing a packet to the bus, the bus
// delivering to memory, ...) wake the consumer through its Handle.
//
// Scheduling is an indexed min-heap keyed by (wake cycle, registration
// index): finding the next event is O(1), Handle.Wake is an O(log N)
// decrease-key, and each event-loop iteration visits only the components
// that are actually due instead of sweeping every registered component.
// With N components of which k are due, the per-event cost is O(k log N)
// rather than O(N). Two fast paths keep dense phases — every component
// due every cycle — near linear-scan speed: Ticks that ask to re-run at
// one shared upcoming cycle bypass the heap into a uniform-cycle bucket
// that becomes the next pass wholesale, and an all-due heap drain
// empties the heap in one sweep instead of popping entry by entry.
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
package sim

import (
	"fmt"
	"math"
	"slices"
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
// Engine.HorizonExcluding.
func (h *Handle) ID() int32 { return h.idx }

// Horizon is Engine.HorizonExcluding for the handle's component.
func (h *Handle) Horizon() Cycle {
	if h == nil || h.e == nil {
		return Never
	}
	return h.e.HorizonExcluding(h.idx)
}

// SchedStamp exposes Engine.SchedStamp to components that only hold a
// handle.
func (h *Handle) SchedStamp() uint64 {
	if h == nil || h.e == nil {
		return 0
	}
	return h.e.SchedStamp()
}

// Engine returns the engine the handle belongs to (nil for a detached
// handle) — for components that combine HorizonExcluding with
// NextScheduled queries about specific peers.
func (h *Handle) Engine() *Engine {
	if h == nil {
		return nil
	}
	return h.e
}

// notQueued marks a component that is not in the heap.
const notQueued int32 = -1

// entry is one scheduled component in the heap. The wake cycle is stored
// inline so comparisons stay within the heap's backing array.
type entry struct {
	at  Cycle
	idx int32
}

// before orders entries by (cycle, registration index); the index
// tie-break is what makes same-cycle ticks follow registration order.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// Engine drives a set of components through simulated time.
type Engine struct {
	comps []Component
	// heap is an indexed binary min-heap of scheduled components; pos[i]
	// is component i's position in it (notQueued when absent, e.g. while
	// sleeping or while waiting in the current pass list).
	heap []entry
	pos  []int32
	now  Cycle
	// ticks[i] counts component i's Tick calls since the last Reset (or
	// Restore): the engine events a run cost, by component. A host-side
	// measure, not simulation state — nothing simulated reads it.
	ticks []int64

	// nextList is the uniform-cycle bucket: components whose Tick asked
	// to re-run at the same upcoming cycle (nextAt — claimed by the
	// first re-tick request while the bucket is empty), in tick order.
	// They bypass the heap entirely — in the dense steady state (and
	// under synchronized strides) the bucket simply becomes the next
	// pass by a slice swap. Membership is
	// epoch-based: component i is in the bucket iff inNextSeq[i] ==
	// bucketSeq, so consuming the whole bucket is a single bucketSeq
	// increment instead of a per-entry flag sweep. A wake that needs an
	// earlier cycle tombstones the bucket entry (inNextSeq[i] zeroed,
	// slot left behind) and reroutes through the heap; nextLive counts
	// non-tombstoned entries and nextSorted tracks whether the bucket is
	// still in ascending registration order.
	nextList   []int32
	inNextSeq  []uint64
	bucketSeq  uint64
	nextAt     Cycle
	nextLive   int
	nextSorted bool

	// Per-cycle pass state. passList holds the components due on the
	// current cycle in ascending registration order; passCursor walks it.
	// A wake for the current cycle targeting a component later in
	// registration order than the one being ticked is spliced into
	// passList so it still runs within this pass (the linear-scan sweep
	// did the same by construction). The not-yet-ticked tail
	// passList[passCursor+1:] is always sorted, so pass membership is a
	// binary search rather than a per-tick flag update.
	passList   []int32
	passCursor int
	ticking    int32 // component currently inside Tick, notQueued outside
	selfWake   Cycle // earliest self-wake posted during the current Tick
	running    bool  // inside a pass (passList/ticking are live)

	// schedStamp invalidates cached HorizonExcluding results: it is
	// bumped whenever an entry is inserted into (or moved earlier in)
	// the schedule, i.e. whenever the horizon could shrink. Entries
	// that leave the schedule, or join it at a cycle not earlier than
	// the one they already tick at (bucket re-ticks, pass drains), can
	// only push the horizon out, so they leave the stamp alone and a
	// stale cached horizon stays conservative.
	schedStamp uint64

	stopped bool
	stopAt  Cycle
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{ticking: notQueued, bucketSeq: 1, nextSorted: true}
}

// Register adds a component to the engine and returns its wake handle.
// Components are ticked in registration order within a cycle, which is
// part of the deterministic contract. The new component is scheduled for
// the current cycle.
func (e *Engine) Register(c Component) *Handle {
	idx := int32(len(e.comps))
	e.comps = append(e.comps, c)
	e.pos = append(e.pos, notQueued)
	e.inNextSeq = append(e.inNextSeq, 0)
	e.ticks = append(e.ticks, 0)
	e.schedule(idx, e.now)
	return &Handle{e: e, idx: idx}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Ticks returns how many times component id has been ticked since the
// engine was last Reset or Restored — the per-component event count that
// host time moves with. It is not part of a snapshot: a restored run
// counts from its restore point.
func (e *Engine) Ticks(id int32) int64 { return e.ticks[id] }

// NumComponents returns the number of registered components; their ids
// are 0..NumComponents()-1 in registration order.
func (e *Engine) NumComponents() int { return len(e.comps) }

// ComponentName returns the Name of component id.
func (e *Engine) ComponentName(id int32) string { return e.comps[id].Name() }

// SchedStamp returns a monotonically increasing counter bumped whenever
// the engine's schedule gains an entry or an existing entry moves to an
// earlier cycle — the only events that can move a quiescence horizon
// earlier. A component may cache HorizonExcluding's result for as long
// as the stamp is unchanged: the cached value can become stale only in
// the conservative direction (the true horizon moved later).
func (e *Engine) SchedStamp() uint64 { return e.schedStamp }

// NextScheduled returns the next cycle at which component id is due to
// run: the current cycle while it is ticking or still pending in the
// current pass, its bucket or heap slot otherwise, and Never when it
// sleeps until woken. Combined with HorizonExcluding it lets a
// component bound when a *specific* peer can next act — e.g. the SPU's
// local-store burst window, which distinguishes the components wired
// to its local store from everyone else.
func (e *Engine) NextScheduled(id int32) Cycle {
	if e.running && (id == e.ticking || e.pendingInPass(id)) {
		return e.now
	}
	if e.inNextSeq[id] == e.bucketSeq {
		return e.nextAt
	}
	if p := e.pos[id]; p != notQueued {
		return e.heap[p].at
	}
	return Never
}

// HorizonExcluding returns the quiescence horizon of component id: the
// earliest cycle — counting the current one — at which any component
// other than id is scheduled to run, or Never when no other component
// has pending work. During a pass the components still due on the
// current cycle count, so a caller inside Tick sees e.Now() whenever
// another component runs later in the same pass (or in an extra pass
// over the same cycle).
//
// The contract this buys: no component other than id can execute — and
// therefore nothing outside id's own state can change — at any cycle t
// in [now, horizon). Work a component performs for such cycles ahead of
// the engine clock (the SPU's local-store read bursts) is
// indistinguishable from having run it cycle by cycle, provided the
// component re-checks the horizon (via SchedStamp) after any action of
// its own that may schedule other components. Scheduling is the single
// source of truth here: every component with pending future work is
// required to be scheduled no later than that work's cycle — a
// component that sat unscheduled on pending work would already deadlock
// the machine today, so the horizon adds no new obligation.
func (e *Engine) HorizonExcluding(id int32) Cycle {
	min := Never
	// Components still pending in the current pass run at e.now, which
	// cannot be beaten: return immediately. The pending tail is sorted
	// and holds each component at most once, so "anything besides id"
	// is a length check.
	if e.running {
		pend := len(e.passList) - (e.passCursor + 1)
		if pend > 1 || (pend == 1 && e.passList[e.passCursor+1] != id) {
			return e.now
		}
	}
	// The uniform-cycle bucket: live entries all run at nextAt.
	if e.nextLive > 1 || (e.nextLive == 1 && e.inNextSeq[id] != e.bucketSeq) {
		min = e.nextAt
	}
	// The heap: its root is the earliest entry; when the root is id
	// itself, the earliest other entry is one of the root's children
	// (id appears at most once).
	if n := len(e.heap); n > 0 {
		if e.heap[0].idx != id {
			if e.heap[0].at < min {
				min = e.heap[0].at
			}
		} else {
			for p := 1; p <= 2 && p < n; p++ {
				if e.heap[p].at < min {
					min = e.heap[p].at
				}
			}
		}
	}
	return min
}

// Reset returns the engine to cycle 0 with every registered component
// scheduled for the first pass, exactly as if each had just been
// registered — the scheduling half of machine reuse. Component state is
// the components' own business; the engine only rewinds time and the
// queues. All existing Handles remain valid.
func (e *Engine) Reset() {
	e.now = 0
	e.stopped = false
	e.stopAt = 0
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
	clear(e.ticks)
	for i := range e.comps {
		e.schedule(int32(i), 0)
	}
}

// Stop requests that Run return at the end of the current pass. It is
// typically called by the component that detects overall completion (the
// PPE mailbox in the CellDTA machine).
func (e *Engine) Stop() {
	e.stopped = true
	e.stopAt = e.now
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

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

// RunStatus says why RunUntil/RunFor returned.
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
// unbounded Run would have placed it before the event's pass — so
// interleaved engines each see precisely the schedule they would see
// run-to-completion, and slices cost nothing in fidelity.
func (e *Engine) RunUntil(until Cycle) (Cycle, RunStatus) {
	for !e.stopped {
		min := Never
		if e.nextLive > 0 {
			min = e.nextAt
		}
		if len(e.heap) > 0 && e.heap[0].at < min {
			min = e.heap[0].at
		}
		if min == Never {
			return e.now, RunQuiescent
		}
		if min > e.now {
			e.now = min
		}
		if e.now >= until {
			return e.now, RunBudget
		}
		e.runPass()
	}
	return e.stopAt, RunStopped
}

// NextEvent returns the cycle of the earliest pending event — the
// uniform-cycle bucket or the heap root, whichever is due first — or
// Never when no component has pending work. It is the O(1) head
// computation RunUntil makes before every pass, exposed so a batch
// scheduler can order paused engines by how soon each has real work
// (the virtual-time key of horizon-aware scheduling).
func (e *Engine) NextEvent() Cycle {
	min := Never
	if e.nextLive > 0 {
		min = e.nextAt
	}
	if len(e.heap) > 0 && e.heap[0].at < min {
		min = e.heap[0].at
	}
	return min
}

// RunFor is RunUntil(Now()+budget), saturating at Never. budget <= 0
// returns immediately with RunBudget.
func (e *Engine) RunFor(budget Cycle) (Cycle, RunStatus) {
	if budget <= 0 {
		return e.now, RunBudget
	}
	until := e.now + budget
	if until < e.now { // overflow
		until = Never
	}
	return e.RunUntil(until)
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

// runPass ticks every component due on cycle e.now in registration
// order. Wakes posted during the pass for the current cycle join the
// pass when they target a component that has not been ticked yet on this
// cycle, and otherwise land in the heap at e.now so the next Run
// iteration makes an extra pass over the same cycle.
func (e *Engine) runPass() {
	e.drainDue()
	e.running = true
	for e.passCursor = 0; e.passCursor < len(e.passList); e.passCursor++ {
		i := e.passList[e.passCursor]
		e.ticking = i
		e.selfWake = Never
		e.ticks[i]++
		nxt := e.comps[i].Tick(e.now)
		if e.selfWake < nxt {
			nxt = e.selfWake
		}
		e.ticking = notQueued
		if nxt <= e.now {
			nxt = e.now + 1
		}
		if nxt != Never && (e.nextLive == 0 || nxt == e.nextAt) {
			// Bucket: an empty bucket is claimed by the first re-tick
			// request of the pass, and components asking for the same
			// cycle pile in behind it. Dense phases (everything returns
			// now+1) and synchronized strides (everything returns
			// now+k) both bypass the heap entirely this way.
			if e.inNextSeq[i] != e.bucketSeq {
				e.inNextSeq[i] = e.bucketSeq
				if n := len(e.nextList); n > 0 && e.nextList[n-1] > i {
					e.nextSorted = false
				}
				e.nextList = append(e.nextList, i)
				e.nextLive++
				e.nextAt = nxt
			}
		} else if nxt != Never {
			e.schedule(i, nxt)
		}
		if e.stopped {
			// Requeue the not-yet-ticked remainder so a Resume + Run
			// picks them up on a fresh pass over this cycle.
			for _, j := range e.passList[e.passCursor+1:] {
				e.schedule(j, e.now)
			}
			break
		}
	}
	e.running = false
	e.passCursor = 0
	e.passList = e.passList[:0]
}

// drainDue collects every component scheduled for e.now (or earlier — a
// component registered mid-run can carry an older cycle) into passList
// in ascending registration order, consuming the next-cycle bucket
// and/or the due prefix of the heap.
func (e *Engine) drainDue() {
	sorted := true
	prev := int32(-1)
	heapDue := len(e.heap) > 0 && e.heap[0].at <= e.now
	if e.nextLive > 0 && e.nextAt <= e.now {
		if !heapDue && e.nextSorted && e.nextLive == len(e.nextList) {
			// Steady state: the bucket has no tombstones or stale
			// entries and is already sorted — it IS the pass. Swapping
			// the slices and bumping the epoch consumes it in O(1).
			e.passList, e.nextList = e.nextList, e.passList[:0]
			e.bucketSeq++
			e.nextLive = 0
			return
		}
		// Promote the bucket entry by entry, filtering tombstones and
		// entries left over from older bucket generations.
		for _, i := range e.nextList {
			if e.inNextSeq[i] != e.bucketSeq {
				continue
			}
			e.inNextSeq[i] = 0
			e.passList = append(e.passList, i)
			if i < prev {
				sorted = false
			}
			prev = i
		}
		e.nextList = e.nextList[:0]
		e.nextLive = 0
		e.nextSorted = true
	} else if len(e.nextList) > 0 && e.nextLive == 0 {
		// Only tombstones left: discard them so the bucket can restart.
		e.nextList = e.nextList[:0]
		e.nextSorted = true
	}

	if heapDue {
		// Dense fast path: when every heap entry is due, empty the heap
		// wholesale and sort, instead of paying an O(log N) sift per
		// pop. The scan early exits on the first non-due entry, so
		// sparse phases lose almost nothing to it.
		h := e.heap
		all := true
		for k := range h {
			if h[k].at > e.now {
				all = false
				break
			}
		}
		if all {
			for _, en := range h {
				e.pos[en.idx] = notQueued
				e.passList = append(e.passList, en.idx)
				if en.idx < prev {
					sorted = false
				}
				prev = en.idx
			}
			e.heap = h[:0]
		} else {
			for len(e.heap) > 0 && e.heap[0].at <= e.now {
				i := e.popMin()
				e.passList = append(e.passList, i)
				if i < prev {
					sorted = false
				}
				prev = i
			}
		}
	}
	if !sorted {
		if len(e.passList) <= 32 {
			insertionSort(e.passList)
		} else {
			slices.Sort(e.passList)
		}
	}
}

// insertionSort sorts small index slices; heap level order is already
// mostly ascending, which this exploits.
func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// wake implements Handle.Wake for component i.
func (e *Engine) wake(i int32, at Cycle) {
	if at < e.now {
		at = e.now // never rewind time
	}
	if e.inNextSeq[i] == e.bucketSeq {
		if at >= e.nextAt {
			return // already scheduled at least that early
		}
		// The wake beats the bucket slot: tombstone it and reschedule
		// through the normal paths below.
		e.inNextSeq[i] = 0
		e.nextLive--
	}
	if !e.running {
		e.schedule(i, at)
		return
	}
	switch {
	case i == e.ticking:
		// A self-wake during Tick merges with the returned next-run time
		// (and a same-cycle self-wake clamps to now+1, as the linear
		// sweep did by clearing the slot before ticking).
		if at < e.selfWake {
			e.selfWake = at
		}
	case e.pendingInPass(i):
		// Already due later in this pass at e.now; at >= e.now cannot
		// improve on that.
	case at == e.now && i > e.ticking:
		// Not ticked yet on this cycle: joins the current pass in
		// registration order.
		e.removeFromHeap(i)
		e.insertIntoPass(i)
	default:
		// Already ticked on this cycle (i < ticking) or a future wake:
		// decrease-key in the heap; a wake at e.now triggers an extra
		// pass over the same cycle on the next Run iteration.
		e.schedule(i, at)
	}
}

// pendingLowerBound returns the position of the first entry >= i in the
// sorted pending tail passList[passCursor+1:] (binary search).
func (e *Engine) pendingLowerBound(i int32) int {
	lo, hi := e.passCursor+1, len(e.passList)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.passList[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pendingInPass reports whether component i is still waiting to be
// ticked in the current pass.
func (e *Engine) pendingInPass(i int32) bool {
	p := e.pendingLowerBound(i)
	return p < len(e.passList) && e.passList[p] == i
}

// insertIntoPass splices component i into the pending portion of the
// current pass list, keeping it sorted by registration index. The
// pending tail is typically short, and i > passList[passCursor] by
// construction.
func (e *Engine) insertIntoPass(i int32) {
	e.schedStamp++
	p := e.pendingLowerBound(i)
	e.passList = append(e.passList, 0)
	copy(e.passList[p+1:], e.passList[p:])
	e.passList[p] = i
}

// schedule sets component i to run no later than at, pushing it into the
// heap or decreasing its key. A later wake than the scheduled one is a
// no-op (wakes merge via min).
func (e *Engine) schedule(i int32, at Cycle) {
	if p := e.pos[i]; p != notQueued {
		if at < e.heap[p].at {
			e.schedStamp++
			e.heap[p].at = at
			e.siftUp(p)
		}
		return
	}
	e.schedStamp++
	p := int32(len(e.heap))
	e.heap = append(e.heap, entry{at: at, idx: i})
	e.pos[i] = p
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

// popMin removes and returns the component with the earliest (at, index)
// key.
func (e *Engine) popMin() int32 {
	h := e.heap
	top := h[0].idx
	e.pos[top] = notQueued
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		e.pos[h[0].idx] = 0
	}
	e.heap = h[:last]
	if last > 1 {
		e.siftDown(0)
	}
	return top
}

// removeFromHeap detaches component i if it is queued (used when a
// same-cycle wake moves it into the current pass list instead).
func (e *Engine) removeFromHeap(i int32) {
	p := e.pos[i]
	if p == notQueued {
		return
	}
	h := e.heap
	e.pos[i] = notQueued
	last := int32(len(h) - 1)
	e.heap = h[:last]
	if p == last {
		return
	}
	moved := h[last]
	h[p] = moved
	e.pos[moved.idx] = p
	// The moved entry may need to go either way.
	if p > 0 && moved.before(h[(p-1)/2]) {
		e.siftUp(p)
	} else {
		e.siftDown(p)
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
