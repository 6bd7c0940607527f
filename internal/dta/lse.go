package dta

import (
	"fmt"

	"repro/internal/ls"
	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FrameBytes is the frame size in bytes (MaxFrameSlots 64-bit slots).
const FrameBytes = program.MaxFrameSlots * 8

// WorkKind tells the SPU what kind of dispatch it received.
type WorkKind int

const (
	WorkNone   WorkKind = iota
	WorkPF              // execute the thread's PF block (Program DMA state)
	WorkThread          // execute PL/EX/PS
)

// LSEConfig holds per-LSE parameters.
type LSEConfig struct {
	NumFrames   int  // frames managed by this LSE
	ServiceRate int  // scheduler operations processed per cycle
	InboxCap    int  // queued operations before the SPU is back-pressured
	VirtualFP   bool // virtual frame pointers (DTA-C extension)
	VFPMax      int  // outstanding virtual FP bindings
}

// DefaultLSEConfig returns the defaults used by the CellDTA machine.
func DefaultLSEConfig() LSEConfig {
	return LSEConfig{NumFrames: 64, ServiceRate: 1, InboxCap: 8, VirtualFP: false, VFPMax: 256}
}

// LSEStats aggregates scheduler activity on one SPE.
type LSEStats struct {
	Fallocs      int64 // frames allocated here
	LocalStores  int64 // frame stores that stayed on-SPE
	RemoteStores int64 // frame stores sent across the interconnect
	MailboxPosts int64
	Frees        int64
	Threads      int64 // threads completed
	VFPBinds     int64
	VFPBuffered  int64 // stores buffered while a VFP was unbound
	MaxInbox     int
	MaxReady     int
	BufferWaits  int64 // threads that waited for prefetch-heap space
}

type itemKind uint8

const (
	itemNet itemKind = iota
	itemFalloc
	itemStore
	itemFree
	itemDone
)

type lseItem struct {
	kind itemKind
	msg  noc.Message
	th   *Thread
	a    int64 // falloc: template; store: fp
	b    int64 // falloc: sc;       store: value
	c    int64 // falloc: reqID;    store: slot
}

type vfpEntry struct {
	bound    bool
	fp       int64
	buffered []lseItem // store items waiting for the binding
}

// LSE is the Local Scheduler Element of one SPE: it manages the frame
// table, synchronisation counters, the ready/PF queues, and speaks the
// scheduler protocol with the DSE and other LSEs.
type LSE struct {
	cfg   LSEConfig
	id    int // noc endpoint id
	spe   int
	dseID int
	ppeID int
	net   *noc.Network
	store *ls.LocalStore
	alloc *ls.Allocator
	base  int64 // frame region base in the local store
	prog  *program.Program

	handle *sim.Handle
	lseEP  func(spe int) int // SPE index -> LSE endpoint id

	slots     []*Thread
	freeSlots []int
	threadSeq int64
	readyQ    []*Thread
	pfQ       []*Thread
	pfPending []*Thread
	waitDMA   map[int64]*Thread
	drainWait map[int64]*Thread // STOPped threads with outstanding DMA (write-back PUTs)

	// inbox is a FIFO with an explicit head cursor: Tick consumes from
	// inboxHead instead of re-slicing (which leaks capacity and
	// reallocates on every refill of a hot queue).
	inbox        []lseItem
	inboxHead    int
	pendingLocal map[int64]bool
	// arrivals holds the messages sent to the LSE, by (delivery cycle,
	// send order), until they join the inbox on that cycle (take).
	arrivals noc.MsgHeap

	vfps     map[int]*vfpEntry
	vfpNext  int
	vfpByReq map[int64]int

	// OnFallocResp delivers a frame pointer for a local FALLOC request.
	OnFallocResp func(now sim.Cycle, reqID, fp int64)
	// OnWork wakes the SPU when the ready or PF queue becomes non-empty.
	OnWork func(now sim.Cycle)
	// Outstanding queries the MFC for incomplete commands in a tag group.
	Outstanding func(tag int64) int
	// Fault receives protocol violations.
	Fault func(error)
	// Rec receives thread-lifecycle events (nil disables recording).
	Rec *trace.Recorder

	stats LSEStats
}

// NewLSE creates the LSE for SPE spe. base is the LS address of the
// frame region (NumFrames*FrameBytes bytes); alloc manages the prefetch
// heap of the same local store.
func NewLSE(cfg LSEConfig, id, spe, dseID, ppeID int, net *noc.Network,
	store *ls.LocalStore, alloc *ls.Allocator, base int64,
	prog *program.Program, lseEP func(int) int) *LSE {
	if cfg.NumFrames <= 0 || cfg.ServiceRate <= 0 || cfg.InboxCap <= 0 {
		panic("dta: non-positive LSE configuration")
	}
	l := &LSE{
		cfg: cfg, id: id, spe: spe, dseID: dseID, ppeID: ppeID,
		net: net, store: store, alloc: alloc, base: base, prog: prog,
		lseEP:        lseEP,
		slots:        make([]*Thread, cfg.NumFrames),
		waitDMA:      make(map[int64]*Thread),
		drainWait:    make(map[int64]*Thread),
		pendingLocal: make(map[int64]bool),
		vfps:         make(map[int]*vfpEntry),
		vfpByReq:     make(map[int64]int),
		Fault:        func(err error) { panic(err) },
	}
	for i := cfg.NumFrames - 1; i >= 0; i-- {
		l.freeSlots = append(l.freeSlots, i)
	}
	return l
}

// Name implements sim.Component.
func (l *LSE) Name() string { return fmt.Sprintf("lse%d", l.spe) }

// Reset returns the LSE to its post-construction state for machine
// reuse, rebinding it to prog with the frame region at base (both
// depend on the loaded program's layout). Wiring (callbacks, endpoints,
// tracer) is kept.
func (l *LSE) Reset(prog *program.Program, base int64) {
	l.prog = prog
	l.base = base
	for i := range l.slots {
		l.slots[i] = nil
	}
	l.freeSlots = l.freeSlots[:0]
	for i := l.cfg.NumFrames - 1; i >= 0; i-- {
		l.freeSlots = append(l.freeSlots, i)
	}
	l.threadSeq = 0
	l.readyQ = l.readyQ[:0]
	l.pfQ = l.pfQ[:0]
	l.pfPending = l.pfPending[:0]
	clear(l.waitDMA)
	clear(l.drainWait)
	for i := range l.inbox {
		l.inbox[i] = lseItem{}
	}
	l.inbox = l.inbox[:0]
	l.inboxHead = 0
	l.arrivals.Reset()
	clear(l.pendingLocal)
	clear(l.vfps)
	l.vfpNext = 0
	clear(l.vfpByReq)
	l.stats = LSEStats{}
}

// Attach stores the engine wake handle.
func (l *LSE) Attach(h *sim.Handle) { l.handle = h }

// Stats returns a copy of the accumulated statistics.
func (l *LSE) Stats() LSEStats { return l.stats }

// FrameAddr returns the LS address of a frame slot.
func (l *LSE) FrameAddr(slot int) int64 { return l.base + int64(slot)*FrameBytes }

// FrameRegion returns the local-store byte range [lo, hi) of the frame
// table: the only bytes the LSE ever writes.
func (l *LSE) FrameRegion() (lo, hi int64) {
	return l.base, l.base + int64(l.cfg.NumFrames)*FrameBytes
}

// CanAccept reports whether the SPU may hand the LSE another operation
// on cycle now (backpressure: the paper's "LSE can't keep up" stalls).
// The messages delivered by now count against the inbox.
func (l *LSE) CanAccept(now sim.Cycle) bool {
	l.take(now)
	return len(l.inbox)-l.inboxHead < l.cfg.InboxCap
}

// push queues an operation behind the messages delivered by now: a
// message goes ahead of an SPU operation of its delivery cycle, in the
// inbox and in MaxInbox.
func (l *LSE) push(now sim.Cycle, it lseItem) {
	l.take(now)
	l.add(it)
	l.handle.Wake(now + 1)
}

func (l *LSE) add(it lseItem) {
	l.inbox = append(l.inbox, it)
	if q := len(l.inbox) - l.inboxHead; q > l.stats.MaxInbox {
		l.stats.MaxInbox = q
	}
}

// DeliverAt implements noc.Endpoint: the message waits in arrivals, and
// the LSE wakes for the cycle after its delivery — the first on which it
// can serve it.
func (l *LSE) DeliverAt(at sim.Cycle, seq int64, m noc.Message) {
	l.arrivals.Push(at, seq, m)
	l.handle.Wake(at + 1)
}

// Undelivered implements noc.Endpoint.
func (l *LSE) Undelivered(now sim.Cycle) int { return l.arrivals.Beyond(now) }

// take moves the messages delivered by now into the inbox. It asks for
// no wake: DeliverAt already asked for the cycle after each delivery.
func (l *LSE) take(now sim.Cycle) {
	for m, ok := l.arrivals.PopDue(now); ok; m, ok = l.arrivals.PopDue(now) {
		l.add(lseItem{kind: itemNet, msg: m})
	}
}

// RequestFalloc queues a local FALLOC (from this SPE's SPU). The
// response arrives through OnFallocResp.
func (l *LSE) RequestFalloc(now sim.Cycle, template, sc int, reqID int64) {
	l.push(now, lseItem{kind: itemFalloc, a: int64(template), b: int64(sc), c: reqID})
}

// StoreTo queues a local frame store (from this SPE's SPU).
func (l *LSE) StoreTo(now sim.Cycle, fp int64, slot int, value int64) {
	l.push(now, lseItem{kind: itemStore, a: fp, b: value, c: int64(slot)})
}

// Ffree queues the release of the thread's frame.
func (l *LSE) Ffree(now sim.Cycle, th *Thread) {
	l.push(now, lseItem{kind: itemFree, th: th})
}

// ThreadDone queues thread completion (STOP).
func (l *LSE) ThreadDone(now sim.Cycle, th *Thread) {
	l.push(now, lseItem{kind: itemDone, th: th})
}

// NextWork hands the SPU its next dispatch: PF blocks have priority so
// DMA programming overlaps thread execution as early as possible.
func (l *LSE) NextWork(now sim.Cycle) (*Thread, WorkKind) {
	if len(l.pfQ) > 0 {
		th := l.pfQ[0]
		l.pfQ = l.pfQ[1:]
		l.emit(now, trace.PFDispatch, th)
		return th, WorkPF
	}
	if len(l.readyQ) > 0 {
		th := l.readyQ[0]
		l.readyQ = l.readyQ[1:]
		th.State = StateRunning
		l.emit(now, trace.Dispatch, th)
		return th, WorkThread
	}
	return nil, WorkNone
}

// emit records a lifecycle event when recording is enabled.
func (l *LSE) emit(now sim.Cycle, kind trace.Kind, th *Thread) {
	l.Rec.Thread(trace.Event{
		At: now, SPE: l.spe, Kind: kind, Thread: th.Seq, Template: th.Template,
	})
}

// PFDone is called by the SPU when the thread's PF block fell off its
// end: the thread either waits for its DMA tag group or becomes ready.
func (l *LSE) PFDone(now sim.Cycle, th *Thread) {
	if l.Outstanding != nil && l.Outstanding(th.Seq) > 0 {
		th.State = StateWaitDMA
		l.waitDMA[th.Seq] = th
		l.emit(now, trace.WaitDMA, th)
		return
	}
	l.ready(now, th)
}

// TagIdle is the MFC completion callback: the thread's transfers are in
// the local store, so it becomes ready (paper Fig. 4: Wait for DMA ->
// Ready).
func (l *LSE) TagIdle(now sim.Cycle, tag int64) {
	if th, ok := l.drainWait[tag]; ok {
		// A completed thread's write-back PUTs drained: finish it now.
		delete(l.drainWait, tag)
		l.finishDone(now, th)
		return
	}
	th, ok := l.waitDMA[tag]
	if !ok {
		// A tag drained before PFDone ran (command completed while the
		// PF block was still executing); PFDone will see Outstanding==0.
		return
	}
	delete(l.waitDMA, tag)
	l.ready(now, th)
}

func (l *LSE) ready(now sim.Cycle, th *Thread) {
	th.State = StateReady
	l.emit(now, trace.Ready, th)
	l.readyQ = append(l.readyQ, th)
	if len(l.readyQ) > l.stats.MaxReady {
		l.stats.MaxReady = len(l.readyQ)
	}
	if l.OnWork != nil {
		l.OnWork(now)
	}
}

// Tick processes up to ServiceRate queued operations.
//
// Local-store contract (the SPU's kernel window depends on it): the
// LSE's only local-store access is the frame write in localFrameStore,
// which lands inside the frame region (FrameRegion) and only in a frame
// whose thread still waits for stores (SC > 0). A running thread's SC is
// 0, so a store into its frame faults before it writes, and the SPU may
// read its own frame ahead of the engine clock: no local-store op is
// legal in PS, the only block that may FFREE (program.legalIn).
// An LSE change that writes anything else, or writes a frame whose SC
// is 0, would silently break that proof — don't.
func (l *LSE) Tick(now sim.Cycle) sim.Cycle {
	l.take(now)
	n := l.cfg.ServiceRate
	for n > 0 && l.inboxHead < len(l.inbox) {
		it := l.inbox[l.inboxHead]
		l.inbox[l.inboxHead] = lseItem{} // release thread references
		l.inboxHead++
		l.process(now, it)
		n--
	}
	if l.inboxHead < len(l.inbox) {
		if l.inboxHead > 32 && 2*l.inboxHead >= len(l.inbox) {
			// Compact once the dead prefix dominates a backlogged inbox.
			kept := copy(l.inbox, l.inbox[l.inboxHead:])
			l.inbox = l.inbox[:kept]
			l.inboxHead = 0
		}
		return now + 1
	}
	l.inbox = l.inbox[:0]
	l.inboxHead = 0
	if l.arrivals.Len() > 0 {
		return l.arrivals.Earliest() + 1
	}
	return sim.Never
}

func (l *LSE) process(now sim.Cycle, it lseItem) {
	switch it.kind {
	case itemFalloc:
		l.handleLocalFalloc(now, it)
	case itemStore:
		l.routeStore(now, it.a, it.c, it.b)
	case itemFree:
		l.releaseSlot(now, it.th)
	case itemDone:
		l.threadDone(now, it.th)
	case itemNet:
		l.handleNet(now, it.msg)
	}
}

func (l *LSE) handleLocalFalloc(now sim.Cycle, it lseItem) {
	if l.cfg.VirtualFP {
		if len(l.vfps) >= l.cfg.VFPMax {
			// Table full: fall back to the blocking path.
			l.pendingLocal[it.c] = true
			l.net.Send(now, noc.Message{
				Src: int32(l.id), Dst: int32(l.dseID), Kind: noc.KindFallocReq,
				A: it.a, B: it.b, C: it.c, D: int64(l.id),
			})
			return
		}
		idx := l.vfpNext
		l.vfpNext++
		l.vfps[idx] = &vfpEntry{}
		l.vfpByReq[it.c] = idx
		// The SPU gets its (virtual) FP immediately; the physical
		// allocation proceeds in the background.
		if l.OnFallocResp != nil {
			l.OnFallocResp(now, it.c, MakeVFP(l.spe, idx))
		}
		l.net.Send(now, noc.Message{
			Src: int32(l.id), Dst: int32(l.dseID), Kind: noc.KindFallocReq,
			A: it.a, B: it.b | int64(idx+1)<<32, C: it.c, D: int64(l.id),
		})
		return
	}
	l.pendingLocal[it.c] = true
	l.net.Send(now, noc.Message{
		Src: int32(l.id), Dst: int32(l.dseID), Kind: noc.KindFallocReq,
		A: it.a, B: it.b, C: it.c, D: int64(l.id),
	})
}

// routeStore delivers a frame store to wherever fp lives.
func (l *LSE) routeStore(now sim.Cycle, fp int64, slot, value int64) {
	if IsMailbox(fp) {
		l.stats.MailboxPosts++
		l.net.Send(now, noc.Message{
			Src: int32(l.id), Dst: int32(l.ppeID), Kind: noc.KindMailboxPost, B: value, C: slot,
		})
		return
	}
	if !IsFP(fp) {
		l.Fault(fmt.Errorf("lse%d: store to non-FP value %#x", l.spe, fp))
		return
	}
	spe, idx, _ := SplitFP(fp)
	if spe != l.spe {
		l.stats.RemoteStores++
		l.net.Send(now, noc.Message{
			Src: int32(l.id), Dst: int32(l.lseEP(spe)), Kind: noc.KindFrameStore,
			A: fp, B: value, C: slot,
		})
		return
	}
	if IsVFP(fp) {
		entry, ok := l.vfps[idx]
		if !ok {
			l.Fault(fmt.Errorf("lse%d: store to released %s", l.spe, FPString(fp)))
			return
		}
		if !entry.bound {
			l.stats.VFPBuffered++
			entry.buffered = append(entry.buffered, lseItem{kind: itemStore, b: value, c: slot})
			return
		}
		l.routeStore(now, entry.fp, slot, value)
		return
	}
	l.localFrameStore(now, idx, slot, value)
}

func (l *LSE) localFrameStore(now sim.Cycle, slot int, slotIdx, value int64) {
	if slot < 0 || slot >= len(l.slots) || l.slots[slot] == nil {
		l.Fault(fmt.Errorf("lse%d: store to unallocated frame %d", l.spe, slot))
		return
	}
	th := l.slots[slot]
	if th.SC <= 0 {
		l.Fault(fmt.Errorf("lse%d: store to %s with SC already 0", l.spe, th))
		return
	}
	if slotIdx < 0 || slotIdx >= program.MaxFrameSlots {
		l.Fault(fmt.Errorf("lse%d: frame slot index %d out of range", l.spe, slotIdx))
		return
	}
	addr := l.FrameAddr(slot) + slotIdx*8
	if err := l.store.Write64(addr, value); err != nil {
		l.Fault(err)
		return
	}
	l.store.Access(ls.PortLSE, now, 8)
	l.stats.LocalStores++
	th.SC--
	if th.SC == 0 {
		l.scZero(now, th)
	}
}

// scZero advances a thread whose inputs are complete: straight to Ready,
// or through the prefetch path when its template has a PF block.
func (l *LSE) scZero(now sim.Cycle, th *Thread) {
	l.emit(now, trace.StoresDone, th)
	tmpl := l.prog.Templates[th.Template]
	if len(tmpl.Blocks[program.PF]) == 0 {
		l.ready(now, th)
		return
	}
	if tmpl.PrefetchBytes > 0 {
		addr, ok := l.alloc.Alloc(tmpl.PrefetchBytes)
		if !ok {
			th.State = StateWaitBuffer
			l.pfPending = append(l.pfPending, th)
			l.stats.BufferWaits++
			return
		}
		th.BufAddr, th.BufBytes = addr, tmpl.PrefetchBytes
	}
	th.State = StateProgramDMA
	l.pfQ = append(l.pfQ, th)
	l.emit(now, trace.ProgramDMA, th)
	if l.OnWork != nil {
		l.OnWork(now)
	}
}

func (l *LSE) releaseSlot(now sim.Cycle, th *Thread) {
	if th.Slot < 0 {
		return // already freed
	}
	l.slots[th.Slot] = nil
	l.freeSlots = append(l.freeSlots, th.Slot)
	th.Slot = -1
	l.stats.Frees++
	l.emit(now, trace.FrameFreed, th)
	l.net.Send(now, noc.Message{Src: int32(l.id), Dst: int32(l.dseID), Kind: noc.KindFrameFreed})
}

func (l *LSE) threadDone(now sim.Cycle, th *Thread) {
	// Write-back PUTs issued in the PS block may still be queued or in
	// flight; the frame and prefetch buffer stay owned until the tag
	// group drains (otherwise a reused buffer could be overwritten
	// before the MFC reads it).
	if l.Outstanding != nil && l.Outstanding(th.Seq) > 0 {
		l.drainWait[th.Seq] = th
		return
	}
	l.finishDone(now, th)
}

func (l *LSE) finishDone(now sim.Cycle, th *Thread) {
	th.State = StateDone
	l.stats.Threads++
	l.emit(now, trace.Done, th)
	l.releaseSlot(now, th)
	if th.BufBytes > 0 {
		l.alloc.Free(th.BufAddr)
		th.BufBytes = 0
		// Heap space freed: retry threads waiting for buffers.
		for len(l.pfPending) > 0 {
			waiter := l.pfPending[0]
			tmpl := l.prog.Templates[waiter.Template]
			addr, ok := l.alloc.Alloc(tmpl.PrefetchBytes)
			if !ok {
				break
			}
			l.pfPending = l.pfPending[1:]
			waiter.BufAddr, waiter.BufBytes = addr, tmpl.PrefetchBytes
			waiter.State = StateProgramDMA
			l.pfQ = append(l.pfQ, waiter)
			if l.OnWork != nil {
				l.OnWork(now)
			}
		}
	}
	if th.VFPOwner >= 0 {
		if th.VFPOwner == l.id {
			l.releaseVFP(th.VFPIndex)
		} else {
			l.net.Send(now, noc.Message{
				Src: int32(l.id), Dst: int32(th.VFPOwner), Kind: noc.KindVFPRelease, A: int64(th.VFPIndex),
			})
		}
	}
}

func (l *LSE) releaseVFP(idx int) {
	entry, ok := l.vfps[idx]
	if !ok {
		l.Fault(fmt.Errorf("lse%d: release of unknown VFP %d", l.spe, idx))
		return
	}
	if len(entry.buffered) > 0 {
		l.Fault(fmt.Errorf("lse%d: VFP %d released with %d buffered stores",
			l.spe, idx, len(entry.buffered)))
		return
	}
	delete(l.vfps, idx)
}

func (l *LSE) handleNet(now sim.Cycle, msg noc.Message) {
	switch msg.Kind {
	case noc.KindFallocFwd:
		l.allocFrame(now, msg)
	case noc.KindFallocResp:
		if idx, ok := l.vfpByReq[msg.C]; ok {
			delete(l.vfpByReq, msg.C)
			entry := l.vfps[idx]
			entry.bound = true
			entry.fp = msg.A
			l.stats.VFPBinds++
			// Flush buffered stores through the normal path (they pay
			// LSE service slots like any other operation).
			for _, b := range entry.buffered {
				l.push(now, lseItem{kind: itemStore, a: msg.A, b: b.b, c: b.c})
			}
			entry.buffered = nil
			return
		}
		if l.pendingLocal[msg.C] {
			delete(l.pendingLocal, msg.C)
			if l.OnFallocResp != nil {
				l.OnFallocResp(now, msg.C, msg.A)
			}
			return
		}
		l.Fault(fmt.Errorf("lse%d: falloc response for unknown request %d", l.spe, msg.C))
	case noc.KindFrameStore:
		l.routeStore(now, msg.A, msg.C, msg.B)
	case noc.KindVFPRelease:
		l.releaseVFP(int(msg.A))
	default:
		l.Fault(fmt.Errorf("lse%d received unexpected %s", l.spe, msg))
	}
}

// allocFrame services a DSE-forwarded FALLOC.
func (l *LSE) allocFrame(now sim.Cycle, msg noc.Message) {
	if len(l.freeSlots) == 0 {
		l.Fault(fmt.Errorf("lse%d: FallocFwd with no free frames (DSE accounting bug)", l.spe))
		return
	}
	slot := l.freeSlots[len(l.freeSlots)-1]
	l.freeSlots = l.freeSlots[:len(l.freeSlots)-1]
	l.threadSeq++
	template := int(msg.A & 0xFFFFFFFF)
	sc := int(msg.B & 0xFFFFFFFF)
	vfpInfo := msg.B >> 32
	th := &Thread{
		Seq:      l.threadSeq,
		Slot:     slot,
		SPE:      l.spe,
		Template: template,
		State:    StateWaitStores,
		SC:       sc,
		VFPOwner: -1,
	}
	if vfpInfo > 0 {
		th.VFPOwner = int(msg.D)
		th.VFPIndex = int(vfpInfo - 1)
	}
	l.slots[slot] = th
	l.stats.Fallocs++
	l.emit(now, trace.FrameAlloc, th)
	if sc == 0 {
		l.scZero(now, th)
	}
	l.net.Send(now, noc.Message{
		Src: int32(l.id), Dst: int32(msg.D), Kind: noc.KindFallocResp,
		A: MakeFP(l.spe, slot), C: msg.C,
	})
}

// DumpState implements sim.StateDumper.
func (l *LSE) DumpState() string {
	live := 0
	for _, t := range l.slots {
		if t != nil {
			live++
		}
	}
	return fmt.Sprintf("frames=%d/%d ready=%d pf=%d waitDMA=%d drain=%d pending-buffer=%d inbox=%d arrivals=%d%s",
		live, l.cfg.NumFrames, len(l.readyQ), len(l.pfQ), len(l.waitDMA), len(l.drainWait), len(l.pfPending),
		len(l.inbox)-l.inboxHead, l.arrivals.Len(), l.arrivals.Describe())
}
