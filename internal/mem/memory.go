package mem

import (
	"fmt"

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

// outEvent is a pending-response heap entry. The message payload lives
// in Memory.outSlab (indexed by slot) so heap sifts move 24-byte refs
// instead of whole Messages — the same slab indirection the network's
// delivery heap uses.
type outEvent struct {
	at   sim.Cycle
	seq  int64
	slot int32
}

// Before orders response events by (ready cycle, service order) for the
// typed min-heap.
func (e outEvent) Before(o outEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Memory is the main-memory component: a noc.Endpoint that services
// scalar and block requests with port and latency modelling, backed by a
// functional sparse store.
type Memory struct {
	cfg    Config
	id     int
	net    *noc.Network
	handle *sim.Handle
	store  *Sparse

	inbox    []noc.Message
	portFree []sim.Cycle
	out      []outEvent
	outSlab  []noc.Message // payloads for out entries, indexed by slot
	outFree  []int32       // recycled outSlab slots
	seq      int64
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
	m.inbox = m.inbox[:0]
	for i := range m.portFree {
		m.portFree[i] = 0
	}
	m.out = m.out[:0]
	for i := range m.outSlab {
		m.outSlab[i] = noc.Message{} // release payload references
	}
	m.outSlab = m.outSlab[:0]
	m.outFree = m.outFree[:0]
	m.seq = 0
	m.stats = Stats{}
}

// Deliver implements noc.Endpoint: it queues the request and asks for a
// tick on the next cycle. When the request is serviced follows from how
// the engine merges that wake, and the timing of every run depends on
// it (TestServiceCycleRule pins the cases):
//
//   - the memory is not due at now: the request is serviced at now+1;
//   - the memory is already due at now — a response to send, or the
//     service tick owed to a delivery at now-1 — and, ticking after the
//     network in the pass, services the request at now with the rest of
//     its inbox. The wake for now+1 is dropped (sim.Engine.wake ignores
//     a wake for a component still pending in the current pass), so the
//     delivery earns no tick of its own at now+1.
func (m *Memory) Deliver(now sim.Cycle, msg noc.Message) {
	m.inbox = append(m.inbox, msg)
	if m.handle != nil {
		m.handle.Wake(now + 1)
	}
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

// outAlloc parks a payload in the slab and returns its slot.
func (m *Memory) outAlloc(msg noc.Message) int32 {
	if n := len(m.outFree); n > 0 {
		slot := m.outFree[n-1]
		m.outFree = m.outFree[:n-1]
		m.outSlab[slot] = msg
		return slot
	}
	m.outSlab = append(m.outSlab, msg)
	return int32(len(m.outSlab) - 1)
}

func (m *Memory) emit(at sim.Cycle, msg noc.Message) {
	m.seq++
	sim.HeapPush(&m.out, outEvent{at: at, seq: m.seq, slot: m.outAlloc(msg)})
}

// occupancyFor returns the port cycles for an n-byte transfer.
func (m *Memory) occupancyFor(n int) sim.Cycle {
	occ := sim.Cycle((n + m.cfg.PortWidth - 1) / m.cfg.PortWidth)
	if occ < 1 {
		occ = 1
	}
	return occ
}

// Tick services every queued request — all of them at now, including
// one delivered earlier in this same pass (see Deliver) — and sends the
// responses due. It asks to run again only for the next response.
func (m *Memory) Tick(now sim.Cycle) sim.Cycle {
	for _, msg := range m.inbox {
		m.service(now, msg)
	}
	m.inbox = m.inbox[:0]

	for len(m.out) > 0 && m.out[0].at <= now {
		ev := sim.HeapPop(&m.out)
		msg := m.outSlab[ev.slot]
		m.outSlab[ev.slot] = noc.Message{} // release payload reference
		m.outFree = append(m.outFree, ev.slot)
		m.net.Send(now, msg)
	}

	if len(m.out) > 0 {
		return m.out[0].at
	}
	return sim.Never
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
	return fmt.Sprintf("inbox=%d pending-out=%d", len(m.inbox), len(m.out))
}
