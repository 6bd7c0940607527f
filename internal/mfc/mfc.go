// Package mfc models the per-SPE Memory Flow Controller: the DMA engine
// that the paper's prefetching mechanism programs from the PF code block.
// Parameters follow paper Table 4 (command queue of 16 entries, 30-cycle
// command latency) and Table 3 (a command carries the LS address, the
// main-memory address, the transfer size and a tag id used to query
// completion).
//
// Tag semantics mirror the Cell MFC tag groups: every command belongs to
// a tag group, and the thread scheduler (LSE) is notified whenever a tag
// group drains to zero outstanding commands — that notification is what
// moves a thread from "Wait for DMA" to "Ready" (paper Figure 4).
package mfc

import (
	"fmt"
	"math"

	"repro/internal/ls"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Channel selects one of the MFC's programming channels (paper Table 3).
type Channel int

const (
	ChLSA  Channel = iota // local store address
	ChEA                  // effective (main memory) address
	ChSize                // transfer size in bytes
	ChTag                 // tag id
)

// Direction of a DMA command.
type Direction uint8

const (
	Get Direction = iota // main memory -> local store
	Put                  // local store -> main memory
)

func (d Direction) String() string {
	if d == Get {
		return "get"
	}
	return "put"
}

// Config holds MFC parameters.
type Config struct {
	QueueSize   int // command queue entries (16)
	CmdLatency  int // per-command processing latency at queue head (30)
	PacketBytes int // packetisation for PUT streaming (128)
}

// DefaultConfig returns the paper's MFC parameters.
func DefaultConfig() Config {
	return Config{QueueSize: 16, CmdLatency: 30, PacketBytes: 128}
}

// Stats aggregates DMA activity.
type Stats struct {
	Gets          int64
	Puts          int64
	BytesIn       int64 // main memory -> LS
	BytesOut      int64 // LS -> main memory
	QueueFull     int64 // enqueue attempts rejected because the queue was full
	TagWaits      int64 // tag groups that drained (completion notifications)
	MaxQueueDepth int
}

// slotBits sizes the slot field of an encoded command id: the low bits
// select the slab slot, the high bits carry a monotonically increasing
// generation so stale ids from freed slots are detected instead of
// silently hitting a recycled command.
const (
	slotBits = 20
	slotMask = (1 << slotBits) - 1
)

type command struct {
	id   int64 // encoded generation<<slotBits | slot; 0 marks a free slot
	lsa  int64
	ea   int64
	size int64
	tag  int64
	dir  Direction

	inflight  bool  // launched and awaiting data/ack
	remaining int64 // bytes not yet transferred

	issuedAt   sim.Cycle // Enqueue cycle (timeline recording)
	launchedAt sim.Cycle // cycle the head command issued its traffic
}

// tagEntry counts outstanding commands in one tag group. Live tag groups
// are few (bounded by thread frames), so a dense slice with linear scan
// beats a map on the per-command hot path.
type tagEntry struct {
	tag int64
	n   int32
}

// evKind discriminates the MFC's internal timer events. Encoding the
// action as data instead of a closure keeps the event heap
// allocation-free on the DMA hot path.
type evKind uint8

const (
	evLaunch   evKind = iota // command latency elapsed: issue traffic for slot
	evSend                   // a PUT packet left the LS: send msg
	evPopHead                // the queue head finished streaming
	evComplete               // a GET's last packet is durably in the LS
)

// timedEvent is a timer-heap entry. slot names a command slab slot for
// evLaunch/evComplete and a sendSlab slot for evSend (the packet payload
// lives there so heap sifts move compact refs, not whole Messages).
type timedEvent struct {
	at   sim.Cycle
	seq  int64
	kind evKind
	slot int32
}

// Before orders events by (due cycle, schedule order) for the typed
// min-heap.
func (e timedEvent) Before(o timedEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is one SPE's DMA controller.
type Engine struct {
	cfg    Config
	id     int // noc endpoint id of this MFC
	memID  int // noc endpoint id of main memory
	net    *noc.Network
	store  *ls.LocalStore
	handle *sim.Handle

	// Staging channels written by the SPU.
	chLSA, chEA, chSize, chTag int64

	// Commands live in a slab indexed by slot with a free-list; the
	// queue and all in-flight references hold slots, and noc messages
	// carry the generation-encoded id (see slotBits).
	cmds      []command
	free      []int32
	queue     []int32
	headBusy  bool // head command is being processed (latency or streaming)
	inflightN int  // commands launched and awaiting data/ack
	tags      []tagEntry
	events    []timedEvent
	// arrivals holds the messages sent to the MFC (GET data, PUT acks),
	// by (delivery cycle, send order), until its tick on that cycle.
	arrivals noc.MsgHeap
	sendSlab []noc.Message // evSend payloads, indexed by event slot
	sendFree []int32       // recycled sendSlab slots
	nextGen  int64
	seq      int64
	stats    Stats

	// OnTagIdle is called when a tag group drains to zero outstanding
	// commands; the machine wires it to the LSE.
	OnTagIdle func(now sim.Cycle, tag int64)
	// Fault receives functional errors.
	Fault func(error)
	// Rec, when non-nil, receives one DMA lifetime span per completed
	// command; RecSPE is the owning SPE index it is attributed to.
	Rec    *trace.Recorder
	RecSPE int
}

// New creates an MFC for the SPE owning store, with the given noc
// endpoint id, talking to the memory endpoint memID.
func New(cfg Config, id, memID int, net *noc.Network, store *ls.LocalStore) *Engine {
	if cfg.QueueSize <= 0 || cfg.PacketBytes <= 0 {
		panic("mfc: non-positive configuration")
	}
	return &Engine{
		cfg:   cfg,
		id:    id,
		memID: memID,
		net:   net,
		store: store,
		Fault: func(err error) { panic(err) },
	}
}

// Name implements sim.Component.
func (e *Engine) Name() string { return fmt.Sprintf("mfc%d", e.id) }

// Attach stores the engine wake handle.
func (e *Engine) Attach(h *sim.Handle) { e.handle = h }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Reset clears the command slab, queue, tag table, timers and
// statistics for machine reuse.
func (e *Engine) Reset() {
	e.chLSA, e.chEA, e.chSize, e.chTag = 0, 0, 0, 0
	e.cmds = e.cmds[:0]
	e.free = e.free[:0]
	e.queue = e.queue[:0]
	e.headBusy = false
	e.inflightN = 0
	e.tags = e.tags[:0]
	e.events = e.events[:0]
	e.arrivals.Reset()
	for i := range e.sendSlab {
		e.sendSlab[i] = noc.Message{} // release payload references
	}
	e.sendSlab = e.sendSlab[:0]
	e.sendFree = e.sendFree[:0]
	e.nextGen = 0
	e.seq = 0
	e.stats = Stats{}
}

// WriteChannel latches a programming value (SPU MFCLSA/MFCEA/MFCSZ/MFCTAG).
func (e *Engine) WriteChannel(ch Channel, v int64) {
	switch ch {
	case ChLSA:
		e.chLSA = v
	case ChEA:
		e.chEA = v
	case ChSize:
		e.chSize = v
	case ChTag:
		e.chTag = v
	}
}

// alloc takes a slot from the free-list (or grows the slab) and assigns
// it a fresh generation-encoded id.
func (e *Engine) alloc() int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.cmds = append(e.cmds, command{})
		slot = int32(len(e.cmds) - 1)
		if slot > slotMask {
			panic(fmt.Sprintf("mfc%d: command slab overflow", e.id))
		}
	}
	e.nextGen++
	e.cmds[slot] = command{id: e.nextGen<<slotBits | int64(slot)}
	return slot
}

// release returns a slot to the free-list.
func (e *Engine) release(slot int32) {
	e.cmds[slot] = command{}
	e.free = append(e.free, slot)
}

// lookup resolves an encoded id to its launched command, or nil when the
// id is stale, unknown, or names a command that is not in flight.
func (e *Engine) lookup(id int64) (*command, int32) {
	slot := int32(id & slotMask)
	if int(slot) >= len(e.cmds) {
		return nil, 0
	}
	cmd := &e.cmds[slot]
	if cmd.id != id || !cmd.inflight {
		return nil, 0
	}
	return cmd, slot
}

// tagInc bumps a tag group's outstanding count.
func (e *Engine) tagInc(tag int64) {
	for k := range e.tags {
		if e.tags[k].tag == tag {
			e.tags[k].n++
			return
		}
	}
	e.tags = append(e.tags, tagEntry{tag: tag, n: 1})
}

// tagDec drops a tag group's outstanding count, reporting whether the
// group drained to zero; ok is false on underflow (unknown tag).
func (e *Engine) tagDec(tag int64) (drained, ok bool) {
	for k := range e.tags {
		if e.tags[k].tag != tag {
			continue
		}
		e.tags[k].n--
		if e.tags[k].n > 0 {
			return false, true
		}
		last := len(e.tags) - 1
		e.tags[k] = e.tags[last]
		e.tags = e.tags[:last]
		return true, true
	}
	return false, false
}

// Enqueue pushes a command built from the staged channels. It returns
// false when the command queue is full (the SPU stalls and retries).
func (e *Engine) Enqueue(now sim.Cycle, dir Direction) bool {
	if len(e.queue) >= e.cfg.QueueSize {
		e.stats.QueueFull++
		return false
	}
	if e.chSize <= 0 {
		e.Fault(fmt.Errorf("mfc%d: %s command with size %d", e.id, dir, e.chSize))
		return true
	}
	slot := e.alloc()
	cmd := &e.cmds[slot]
	cmd.lsa, cmd.ea, cmd.size, cmd.tag = e.chLSA, e.chEA, e.chSize, e.chTag
	cmd.dir = dir
	cmd.remaining = e.chSize
	cmd.issuedAt, cmd.launchedAt = now, now
	e.queue = append(e.queue, slot)
	if len(e.queue) > e.stats.MaxQueueDepth {
		e.stats.MaxQueueDepth = len(e.queue)
	}
	e.tagInc(cmd.tag)
	if e.handle != nil {
		e.handle.Wake(now + 1)
	}
	return true
}

// Outstanding returns the number of incomplete commands in a tag group
// (the MFCSTAT instruction).
func (e *Engine) Outstanding(tag int64) int {
	for k := range e.tags {
		if e.tags[k].tag == tag {
			return int(e.tags[k].n)
		}
	}
	return 0
}

// Range is a half-open local-store byte range [Lo, Hi).
type Range struct{ Lo, Hi int64 }

// LiveRanges appends to dst the local-store range of every live
// command — queued, launched, or awaiting completion — and returns it.
// The engine touches the local store only inside these ranges: GET data
// lands in its command's range (deliver) and PUT packets are read from
// theirs (launch). Only Enqueue adds a range, and a range goes when its
// command completes. Hi saturates at math.MaxInt64.
func (e *Engine) LiveRanges(dst []Range) []Range {
	for i := range e.cmds {
		if c := &e.cmds[i]; c.id != 0 {
			hi := c.lsa + c.size // size > 0 (Enqueue)
			if hi < c.lsa {
				hi = math.MaxInt64
			}
			dst = append(dst, Range{c.lsa, hi})
		}
	}
	return dst
}

// QueueDepth returns the number of commands waiting in the queue.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Busy reports whether any command is queued, being processed or in
// flight (used by the machine to drain write-back PUTs before ending a
// run).
func (e *Engine) Busy() bool {
	return len(e.queue) > 0 || e.inflightN > 0 || len(e.events) > 0
}

func (e *Engine) schedule(at sim.Cycle, ev timedEvent) {
	e.seq++
	ev.at, ev.seq = at, e.seq
	sim.HeapPush(&e.events, ev)
	if e.handle != nil {
		e.handle.Wake(at)
	}
}

// sendAlloc parks an evSend payload in the slab and returns its slot.
func (e *Engine) sendAlloc(msg noc.Message) int32 {
	if n := len(e.sendFree); n > 0 {
		slot := e.sendFree[n-1]
		e.sendFree = e.sendFree[:n-1]
		e.sendSlab[slot] = msg
		return slot
	}
	e.sendSlab = append(e.sendSlab, msg)
	return int32(len(e.sendSlab) - 1)
}

// dispatch runs one due timer event.
func (e *Engine) dispatch(now sim.Cycle, ev timedEvent) {
	switch ev.kind {
	case evLaunch:
		e.launch(now, ev.slot)
	case evSend:
		msg := e.sendSlab[ev.slot]
		e.sendSlab[ev.slot] = noc.Message{} // release payload reference
		e.sendFree = append(e.sendFree, ev.slot)
		e.net.Send(now, msg)
	case evPopHead:
		e.popHead(now)
	case evComplete:
		e.complete(now, ev.slot)
	}
}

// Tick processes the queue head and due events.
//
// Local-store contract (the SPU's kernel window depends on it): the
// engine reads and writes the local store only inside the range of a
// live command (LiveRanges) — GET data in deliver, PUT packets in
// launch — and a command is live from Enqueue, which only this SPE's
// SPU calls, until it completes. An MFC change that touches the store
// outside a live command's range, or after the command completed, would
// silently break that proof — don't.
func (e *Engine) Tick(now sim.Cycle) sim.Cycle {
	for msg, ok := e.arrivals.PopDue(now); ok; msg, ok = e.arrivals.PopDue(now) {
		e.deliver(now, msg)
	}
	for len(e.events) > 0 && e.events[0].at <= now {
		ev := sim.HeapPop(&e.events)
		e.dispatch(now, ev)
	}
	if !e.headBusy && len(e.queue) > 0 {
		e.headBusy = true
		e.schedule(now+sim.Cycle(e.cfg.CmdLatency), timedEvent{kind: evLaunch, slot: e.queue[0]})
	}
	next := e.arrivals.Earliest()
	if len(e.events) > 0 {
		next = min(next, e.events[0].at)
	}
	return next
}

// launch issues the memory traffic for the head command after its
// command latency has elapsed.
func (e *Engine) launch(now sim.Cycle, slot int32) {
	cmd := &e.cmds[slot]
	cmd.launchedAt = now
	switch cmd.dir {
	case Get:
		e.stats.Gets++
		cmd.inflight = true
		e.inflightN++
		e.net.Send(now, noc.Message{
			Src: int32(e.id), Dst: int32(e.memID), Kind: noc.KindMemBlockRead,
			A: cmd.ea, B: cmd.size, C: cmd.id,
		})
		e.popHead(now)
	case Put:
		e.stats.Puts++
		cmd.inflight = true
		e.inflightN++
		// Stream packets, pacing on the LS read port.
		off := int64(0)
		t := now
		for off < cmd.size {
			n := int64(e.cfg.PacketBytes)
			if off+n > cmd.size {
				n = cmd.size - off
			}
			buf := e.net.GetBuf(int(n))
			if err := e.store.ReadBytes(cmd.lsa+off, buf); err != nil {
				e.Fault(fmt.Errorf("mfc%d put: %w", e.id, err))
				return
			}
			ready := e.store.Access(ls.PortMFC, t, int(n))
			last := int64(0)
			if off+n >= cmd.size {
				last = 1
			}
			e.schedule(ready, timedEvent{kind: evSend, slot: e.sendAlloc(noc.Message{
				Src: int32(e.id), Dst: int32(e.memID), Kind: noc.KindMemBlockWrite,
				A: cmd.ea + off, B: last, C: cmd.id, D: off, Data: buf,
			})})
			t = ready
			off += n
		}
		// The head slot frees once the last packet has left the LS.
		e.schedule(t, timedEvent{kind: evPopHead})
	}
}

func (e *Engine) popHead(now sim.Cycle) {
	e.queue = e.queue[1:]
	e.headBusy = false
	if e.handle != nil {
		e.handle.Wake(now + 1)
	}
}

// DeliverAt implements noc.Endpoint: data packets for GETs and acks for
// PUTs arrive here. The message waits in arrivals, and the MFC wakes on
// its delivery cycle: DMA data lands in the local store on that cycle,
// ahead of the SPU's tick (the machine registers each MFC before its
// SPU). A PUT ack is seen after the LSE's tick of that cycle, so a
// thread the LSE finishes on it is finished by the ack (TagIdle), not by
// the LSE's own check of the tag group (Outstanding).
func (e *Engine) DeliverAt(at sim.Cycle, seq int64, m noc.Message) {
	e.arrivals.Push(at, seq, m)
	e.handle.Wake(at)
}

// Undelivered implements noc.Endpoint.
func (e *Engine) Undelivered(now sim.Cycle) int { return e.arrivals.Beyond(now) }

// deliver acts on one message on its delivery cycle.
func (e *Engine) deliver(now sim.Cycle, msg noc.Message) {
	switch msg.Kind {
	case noc.KindMemBlockData:
		cmd, slot := e.lookup(msg.C)
		if cmd == nil {
			e.Fault(fmt.Errorf("mfc%d: data for unknown command %d", e.id, msg.C))
			return
		}
		if err := e.store.WriteBytes(cmd.lsa+msg.D, msg.Data); err != nil {
			e.Fault(fmt.Errorf("mfc%d get: %w", e.id, err))
			return
		}
		done := e.store.Access(ls.PortMFC, now, len(msg.Data))
		e.stats.BytesIn += int64(len(msg.Data))
		cmd.remaining -= int64(len(msg.Data))
		e.net.PutBuf(msg.Data) // payload copied into the LS; recycle
		if cmd.remaining <= 0 {
			e.schedule(done, timedEvent{kind: evComplete, slot: slot})
		}
	case noc.KindMemBlockAck:
		cmd, slot := e.lookup(msg.C)
		if cmd == nil {
			e.Fault(fmt.Errorf("mfc%d: ack for unknown command %d", e.id, msg.C))
			return
		}
		e.stats.BytesOut += cmd.size
		e.complete(now, slot)
	default:
		e.Fault(fmt.Errorf("mfc%d received unexpected %s", e.id, msg))
	}
}

func (e *Engine) complete(now sim.Cycle, slot int32) {
	cmd := &e.cmds[slot]
	tag := cmd.tag
	if e.Rec != nil {
		e.Rec.DMA(e.RecSPE, uint8(cmd.dir), cmd.size, cmd.tag, cmd.issuedAt, cmd.launchedAt, now)
	}
	e.release(slot)
	e.inflightN--
	drained, ok := e.tagDec(tag)
	if !ok {
		e.Fault(fmt.Errorf("mfc%d: tag %d underflow", e.id, tag))
		return
	}
	if drained {
		e.stats.TagWaits++
		if e.OnTagIdle != nil {
			e.OnTagIdle(now, tag)
		}
	}
}

// DumpState implements sim.StateDumper.
func (e *Engine) DumpState() string {
	return fmt.Sprintf("queue=%d inflight=%d events=%d arrivals=%d%s",
		len(e.queue), e.inflightN, len(e.events), e.arrivals.Len(), e.arrivals.Describe())
}
