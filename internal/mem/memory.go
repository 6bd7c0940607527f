package mem

import (
	"fmt"
	"strings"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Config holds the main-memory parameters (paper Table 2).
type Config struct {
	SizeBytes   int64 // 512 MB
	Latency     int   // access latency in cycles (150)
	Ports       int   // concurrent requests entering service (1)
	PortWidth   int   // bytes a port moves per cycle (32)
	PacketBytes int   // DMA streaming granularity (128)
}

// DefaultConfig returns the paper's memory-subsystem parameters.
func DefaultConfig() Config {
	return Config{
		SizeBytes:   512 << 20,
		Latency:     150,
		Ports:       1,
		PortWidth:   32,
		PacketBytes: 128,
	}
}

// Stats aggregates memory activity.
type Stats struct {
	ScalarReads  int64
	ScalarWrites int64
	BlockReads   int64 // DMA GET commands served
	BlockWrites  int64 // DMA PUT commands served
	BytesRead    int64
	BytesWritten int64
	PortBusy     int64 // cycles of port occupancy, summed over ports
}

// timedRef is one entry of a msgHeap. The message itself lives in the
// heap's slab (indexed by slot) so sifts move 24-byte refs instead of
// whole Messages — the same slab indirection the network's delivery heap
// uses.
type timedRef struct {
	at   sim.Cycle
	seq  int64
	slot int32
}

// Before orders entries by (cycle, sequence) for the typed min-heap.
func (e timedRef) Before(o timedRef) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// msgHeap holds messages that each become due at a cycle, earliest
// first and in sequence order within a cycle. Both of the memory's
// queues are one: requests by (delivery cycle, network send order),
// responses by (ready cycle, service order).
type msgHeap struct {
	refs []timedRef
	slab []noc.Message // payloads for refs, indexed by slot
	free []int32       // recycled slab slots
}

func (q *msgHeap) len() int { return len(q.refs) }

// due reports whether the earliest entry's cycle is at or before now.
func (q *msgHeap) due(now sim.Cycle) bool { return len(q.refs) > 0 && q.refs[0].at <= now }

func (q *msgHeap) push(at sim.Cycle, seq int64, msg noc.Message) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = msg
	} else {
		q.slab = append(q.slab, msg)
		slot = int32(len(q.slab) - 1)
	}
	sim.HeapPush(&q.refs, timedRef{at: at, seq: seq, slot: slot})
}

// pop removes and returns the earliest message.
func (q *msgHeap) pop() noc.Message {
	ref := sim.HeapPop(&q.refs)
	msg := q.slab[ref.slot]
	q.slab[ref.slot] = noc.Message{} // release payload reference
	q.free = append(q.free, ref.slot)
	return msg
}

func (q *msgHeap) reset() {
	q.refs = q.refs[:0]
	clear(q.slab) // release payload references
	q.slab = q.slab[:0]
	q.free = q.free[:0]
}

// Memory is the main-memory component: it services scalar and block
// requests with port and latency modelling, backed by a functional
// sparse store. On the interconnect it is a timed endpoint
// (noc.TimedEndpoint): a request reaches it when it is sent, stamped
// with its delivery cycle, and waits in the inbox until a tick at or
// after that cycle services it. When that tick comes — the service-cycle
// rule every run's timing depends on, pinned by TestServiceCycleRule —
// follows from the memory's own state:
//
//   - the memory ticks on the cycle after a request's delivery and on
//     every cycle a response is ready to send, and on no other;
//   - a tick services every request delivered by then. So a request is
//     serviced on the cycle after its delivery, or on the delivery cycle
//     itself when the memory is due on it anyway — a response to send,
//     or the service tick owed to a request delivered one cycle earlier —
//     and in that case earns no tick of its own on the next cycle.
type Memory struct {
	cfg    Config
	id     int
	net    *noc.Network
	handle *sim.Handle
	store  *Sparse

	inbox    msgHeap // requests, by (delivery cycle, network send order)
	portFree []sim.Cycle
	out      msgHeap // responses, by (ready cycle, service order)
	seq      int64   // service order of the responses
	stats    Stats

	// Fault receives functional errors (out-of-range accesses); the
	// machine wires it to abort the run with a diagnostic.
	Fault func(error)
}

// New creates a memory with endpoint id on net.
func New(cfg Config, id int, net *noc.Network) *Memory {
	if cfg.Ports <= 0 || cfg.PortWidth <= 0 || cfg.PacketBytes <= 0 {
		panic("mem: non-positive port configuration")
	}
	return &Memory{
		cfg:      cfg,
		id:       id,
		net:      net,
		store:    NewSparse(cfg.SizeBytes),
		portFree: make([]sim.Cycle, cfg.Ports),
		Fault:    func(err error) { panic(err) },
	}
}

// Name implements sim.Component.
func (m *Memory) Name() string { return "memory" }

// Attach stores the engine wake handle.
func (m *Memory) Attach(h *sim.Handle) { m.handle = h }

// Store exposes the functional backing store (for program loading and
// result checking).
func (m *Memory) Store() *Sparse { return m.store }

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// Reset clears the functional store, all queued requests and pending
// responses, port bookings and statistics for machine reuse.
func (m *Memory) Reset() {
	m.store.Reset()
	m.inbox.reset()
	clear(m.portFree)
	m.out.reset()
	m.seq = 0
	m.stats = Stats{}
}

// DeliverAt implements noc.TimedEndpoint: the request joins the inbox
// under its delivery cycle, and the memory makes sure it ticks on the
// cycle after.
func (m *Memory) DeliverAt(at sim.Cycle, seq int64, msg noc.Message) {
	m.inbox.push(at, seq, msg)
	m.handle.Wake(at + 1)
}

// Undelivered implements noc.TimedEndpoint. Requests leave the inbox
// when they are serviced, which is never before their delivery cycle.
func (m *Memory) Undelivered(now sim.Cycle) int {
	k := 0
	for _, ref := range m.inbox.refs {
		if ref.at > now {
			k++
		}
	}
	return k
}

// reservePort books occupancy cycles on the earliest-free port starting
// no earlier than now, returning the service start cycle.
func (m *Memory) reservePort(now sim.Cycle, occupancy sim.Cycle) sim.Cycle {
	best := 0
	for i := 1; i < len(m.portFree); i++ {
		if m.portFree[i] < m.portFree[best] {
			best = i
		}
	}
	start := now
	if m.portFree[best] > start {
		start = m.portFree[best]
	}
	m.portFree[best] = start + occupancy
	m.stats.PortBusy += int64(occupancy)
	return start
}

func (m *Memory) emit(at sim.Cycle, msg noc.Message) {
	m.seq++
	m.out.push(at, m.seq, msg)
}

// occupancyFor returns the port cycles for an n-byte transfer.
func (m *Memory) occupancyFor(n int) sim.Cycle {
	occ := sim.Cycle((n + m.cfg.PortWidth - 1) / m.cfg.PortWidth)
	if occ < 1 {
		occ = 1
	}
	return occ
}

// Tick services the requests delivered by now, in delivery order, and
// sends the responses due. It asks to run again for the next response
// or the cycle after the next delivery, whichever is first (see Memory
// for the rule this makes).
func (m *Memory) Tick(now sim.Cycle) sim.Cycle {
	for m.inbox.due(now) {
		m.service(now, m.inbox.pop())
	}
	for m.out.due(now) {
		m.net.Send(now, m.out.pop())
	}

	next := sim.Never
	if m.out.len() > 0 {
		next = m.out.refs[0].at
	}
	if m.inbox.len() > 0 && m.inbox.refs[0].at+1 < next {
		next = m.inbox.refs[0].at + 1
	}
	return next
}

func (m *Memory) service(now sim.Cycle, msg noc.Message) {
	lat := sim.Cycle(m.cfg.Latency)
	switch msg.Kind {
	case noc.KindMemRead32, noc.KindMemRead64:
		n := 4
		if msg.Kind == noc.KindMemRead64 {
			n = 8
		}
		var v int64
		var err error
		if n == 4 {
			v, err = m.store.Read32(msg.A)
		} else {
			v, err = m.store.Read64(msg.A)
		}
		if err != nil {
			m.Fault(fmt.Errorf("scalar read from %d: %w", msg.Src, err))
			return
		}
		start := m.reservePort(now, 1)
		m.stats.ScalarReads++
		m.stats.BytesRead += int64(n)
		m.emit(start+lat, noc.Message{
			Src: m.id, Dst: msg.Src, Kind: noc.KindMemReadResp,
			A: msg.A, B: v, C: msg.C,
			Pad: int32(n), // models the data payload on the wire
		})

	case noc.KindMemWrite32, noc.KindMemWrite64:
		var err error
		if msg.Kind == noc.KindMemWrite32 {
			err = m.store.Write32(msg.A, msg.B)
		} else {
			err = m.store.Write64(msg.A, msg.B)
		}
		if err != nil {
			m.Fault(fmt.Errorf("scalar write from %d: %w", msg.Src, err))
			return
		}
		m.reservePort(now, 1)
		m.stats.ScalarWrites++
		m.stats.BytesWritten += int64(4)
		if msg.Kind == noc.KindMemWrite64 {
			m.stats.BytesWritten += 4
		}

	case noc.KindMemBlockRead:
		// Stream the block back as PacketBytes-sized data packets. Each
		// packet reserves the port for its occupancy; the first packet
		// additionally pays the access latency, subsequent ones are
		// pipelined behind it.
		total := int(msg.B)
		if total <= 0 {
			m.Fault(fmt.Errorf("block read of %d bytes from %d", total, msg.Src))
			return
		}
		m.stats.BlockReads++
		m.stats.BytesRead += int64(total)
		for off := 0; off < total; off += m.cfg.PacketBytes {
			n := m.cfg.PacketBytes
			if off+n > total {
				n = total - off
			}
			buf := m.net.GetBuf(n)
			if err := m.store.ReadInto(msg.A+int64(off), buf); err != nil {
				m.Fault(fmt.Errorf("block read from %d: %w", msg.Src, err))
				return
			}
			start := m.reservePort(now, m.occupancyFor(n))
			last := int64(0)
			if off+n >= total {
				last = 1
			}
			m.emit(start+lat, noc.Message{
				Src: m.id, Dst: msg.Src, Kind: noc.KindMemBlockData,
				A: msg.A + int64(off), B: last, C: msg.C, D: int64(off),
				Data: buf,
			})
		}

	case noc.KindMemBlockWrite:
		if err := m.store.WriteFrom(msg.A, msg.Data); err != nil {
			m.Fault(fmt.Errorf("block write from %d: %w", msg.Src, err))
			return
		}
		start := m.reservePort(now, m.occupancyFor(len(msg.Data)))
		m.stats.BytesWritten += int64(len(msg.Data))
		m.net.PutBuf(msg.Data) // payload copied into the store; recycle
		if msg.B == 1 {        // final packet of the PUT command
			m.stats.BlockWrites++
			m.emit(start+lat, noc.Message{
				Src: m.id, Dst: msg.Src, Kind: noc.KindMemBlockAck, C: msg.C,
			})
		}

	default:
		m.Fault(fmt.Errorf("memory received unexpected %s", msg))
	}
}

// DumpState implements sim.StateDumper.
func (m *Memory) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inbox=%d pending-out=%d", m.inbox.len(), m.out.len())
	// Heap order, not delivery order: a deadlock report wants to see
	// every request under way, each with the cycle it is delivered.
	for _, ref := range m.inbox.refs {
		msg := m.inbox.slab[ref.slot]
		fmt.Fprintf(&b, " [%s from %d at %d]", msg.Kind, msg.Src, ref.at)
	}
	return b.String()
}
