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

// Memory is the main-memory component: it services scalar and block
// requests with port and latency modelling, backed by a functional
// sparse store. On the interconnect it is an endpoint (noc.Endpoint):
// a request reaches it when it is sent, stamped
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
//
// Most requests are blocking READs, and for most of them that service
// tick is decided the moment the network hands them over, so the memory
// services them there and spends no engine event on them (EXPERIMENTS.md
// "Service at hand-over"). It does so for a scalar READ when
//
//   - its delivery cycle is the earliest any later Send can reach
//     (at <= now + MinDeliveryLatency), and its inbox is empty: every
//     request serviced before it in the rule above has been, and every
//     later one comes after it;
//   - its service cycle s — at when the memory is due on at (a response
//     ready then, or an earlier READ serviced at hand-over for at), at+1
//     otherwise — lies before the end of the engine's slice
//     (sim.Engine.SliceEnd), so every Step boundary sees the state the
//     rule above passes through;
//   - the read would not fault.
//
// It then reads the store, books the port and files the response for s
// as the tick would have. (The store cannot change in between: writes
// reach it through the inbox, behind this READ, and the always-hit mode,
// whose SPUs write it directly, sends the memory no READs.) Stats and
// Undelivered count such a READ from s and from at, as they count one in
// the inbox; a request later delivered on s joins that tick. Everything
// else — writes, block requests, a READ behind queued requests or past
// the slice end — takes the inbox.
// refMemory in the tests is the inbox-only memory, and the differential
// there holds the two to the same responses, cycles and statistics.
type Memory struct {
	cfg    Config
	id     int32
	net    *noc.Network
	handle *sim.Handle
	store  *Sparse
	minLat sim.Cycle // the network's MinDeliveryLatency

	// The queues hand out slab slots (noc.MsgHeap): a request is copied
	// into its slot once, on delivery, and serviced there; a response is
	// built in its slot and sent from it.
	inbox    noc.MsgHeap // requests, by (delivery cycle, network send order)
	portFree []sim.Cycle
	out      noc.MsgHeap // responses, by (ready cycle, service order)
	seq      int64       // service order of the responses
	stats    Stats

	// READs serviced at hand-over: the service cycle of the latest (0 for
	// none; every delivery cycle is later), and the recent ones in service
	// order — all whose service cycle the engine may not have passed yet,
	// trimmed only when the slice is full. Neither is snapshot state: at a
	// slice boundary every such service has passed.
	lastHand sim.Cycle
	ahead    []handOver

	// Fault receives functional errors (out-of-range accesses); the
	// machine wires it to abort the run with a diagnostic.
	Fault func(error)
}

// handOver is one READ serviced at hand-over: its delivery and service
// cycles and the bytes it read.
type handOver struct {
	at, s sim.Cycle
	bytes int64
}

// New creates a memory with endpoint id on net.
func New(cfg Config, id int, net *noc.Network) *Memory {
	if cfg.Ports <= 0 || cfg.PortWidth <= 0 || cfg.PacketBytes <= 0 {
		panic("mem: non-positive port configuration")
	}
	return &Memory{
		cfg:      cfg,
		id:       int32(id),
		net:      net,
		store:    NewSparse(cfg.SizeBytes),
		minLat:   net.MinDeliveryLatency(),
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

// Stats returns a copy of the accumulated statistics as of the engine's
// position: a READ serviced at hand-over counts once the engine has
// passed the memory's turn on its service cycle, as the tick that would
// have serviced it would have (a Stop on that cycle before the memory's
// turn, as the PPE's, leaves it out).
func (m *Memory) Stats() Stats {
	st := m.stats
	e := m.handle.Engine()
	for _, h := range m.ahead {
		if !e.Passed(m.handle.ID(), h.s) {
			st.ScalarReads--
			st.BytesRead -= h.bytes
			st.PortBusy--
		}
	}
	return st
}

// Reset clears the functional store, all queued requests and pending
// responses, port bookings and statistics for machine reuse.
func (m *Memory) Reset() {
	m.store.Reset()
	m.inbox.Reset()
	clear(m.portFree)
	m.out.Reset()
	m.seq = 0
	m.stats = Stats{}
	m.forgetHandOvers()
}

func (m *Memory) forgetHandOvers() {
	m.lastHand = 0
	m.ahead = m.ahead[:0]
}

// DeliverAt implements noc.Endpoint: a READ whose service cycle is
// decided is serviced on the spot (see Memory); any other request joins
// the inbox under its delivery cycle, and the memory makes sure it ticks
// on the cycle after — or on the delivery cycle itself, when a READ
// serviced at hand-over owns that cycle's tick.
func (m *Memory) DeliverAt(at sim.Cycle, seq int64, msg noc.Message) {
	if m.handOver(at, &msg) {
		return
	}
	m.inbox.Push(at, seq, msg)
	m.handle.Wake(m.serviceCycle(at))
}

// serviceCycle is the cycle an inbox request delivered at at is serviced
// on, when no response falls due on at.
func (m *Memory) serviceCycle(at sim.Cycle) sim.Cycle {
	if at == m.lastHand {
		return at
	}
	return at + 1
}

// handOver services a scalar READ when the network hands it over, if its
// service cycle is already decided (see Memory), and reports whether it
// did.
func (m *Memory) handOver(at sim.Cycle, msg *noc.Message) bool {
	if msg.Kind != noc.KindMemRead32 && msg.Kind != noc.KindMemRead64 || m.inbox.Len() > 0 {
		return false
	}
	e := m.handle.Engine()
	if e == nil || at > e.Now()+m.minLat {
		return false
	}
	s := m.serviceCycle(at)
	if s > at && m.out.Has(at) {
		s = at
	}
	if s >= e.SliceEnd() {
		return false
	}
	v, n, err := m.read(msg)
	if err != nil {
		return false // the inbox services it, and faults, on its tick
	}
	if len(m.ahead) == cap(m.ahead) {
		// Make room by forgetting the services the clock has moved past.
		k := 0
		for k < len(m.ahead) && m.ahead[k].s < e.Now() {
			k++
		}
		m.ahead = m.ahead[:copy(m.ahead, m.ahead[k:])]
	}
	m.ahead = append(m.ahead, handOver{at: at, s: s, bytes: int64(n)})
	m.lastHand = s
	// The memory is always scheduled for its earliest response (Tick
	// returns it), so only a new earliest needs a wake.
	earliest := m.out.Earliest()
	if ready := m.serviceRead(s, msg, v, n); ready < earliest {
		m.handle.Wake(ready)
	}
	return true
}

// Undelivered implements noc.Endpoint. Requests leave the inbox
// when they are serviced, which is never before their delivery cycle; a
// READ serviced at hand-over counts until its delivery cycle likewise.
func (m *Memory) Undelivered(now sim.Cycle) int {
	k := m.inbox.Beyond(now)
	for _, h := range m.ahead {
		if h.at > now {
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

// respond files a response ready at cycle at, in service order, and
// returns its zero slot for the caller to build the message in.
func (m *Memory) respond(at sim.Cycle) *noc.Message {
	m.seq++
	return m.out.PushNew(at, m.seq)
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
// or the service cycle of the next delivery, whichever is first (see
// Memory for the rule this makes).
func (m *Memory) Tick(now sim.Cycle) sim.Cycle {
	for m.inbox.Due(now) {
		slot, req := m.inbox.Pop()
		m.service(now, req)
		m.inbox.Release(slot)
	}
	for m.out.Due(now) {
		slot, resp := m.out.Pop()
		m.net.Send(now, *resp)
		m.out.Release(slot)
	}

	next := m.out.Earliest()
	if m.inbox.Len() > 0 {
		next = min(next, m.serviceCycle(m.inbox.Earliest()))
	}
	return next
}

// read performs a scalar READ's functional access, returning the value
// and its width in bytes.
func (m *Memory) read(msg *noc.Message) (int64, int, error) {
	if msg.Kind == noc.KindMemRead64 {
		v, err := m.store.Read64(msg.A)
		return v, 8, err
	}
	v, err := m.store.Read32(msg.A)
	return v, 4, err
}

// serviceRead books the port for a scalar READ of n bytes serviced at
// cycle now, which read v, and files its response; it returns the cycle
// the response is ready.
func (m *Memory) serviceRead(now sim.Cycle, msg *noc.Message, v int64, n int) sim.Cycle {
	start := m.reservePort(now, 1)
	m.stats.ScalarReads++
	m.stats.BytesRead += int64(n)
	ready := start + sim.Cycle(m.cfg.Latency)
	r := m.respond(ready)
	r.Src, r.Dst, r.Kind = m.id, msg.Src, noc.KindMemReadResp
	r.A, r.B, r.C = msg.A, v, msg.C
	r.Pad = int32(n) // models the data payload on the wire
	return ready
}

// service carries out one delivered request, read in its inbox slot.
// Responses are built in theirs.
func (m *Memory) service(now sim.Cycle, msg *noc.Message) {
	lat := sim.Cycle(m.cfg.Latency)
	switch msg.Kind {
	case noc.KindMemRead32, noc.KindMemRead64:
		v, n, err := m.read(msg)
		if err != nil {
			m.Fault(fmt.Errorf("scalar read from %d: %w", msg.Src, err))
			return
		}
		m.serviceRead(now, msg, v, n)

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
			r := m.respond(start + lat)
			r.Src, r.Dst, r.Kind = m.id, msg.Src, noc.KindMemBlockData
			r.A, r.C, r.D = msg.A+int64(off), msg.C, int64(off)
			if off+n >= total {
				r.B = 1 // last packet
			}
			r.Data = buf
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
			r := m.respond(start + lat)
			r.Src, r.Dst, r.Kind, r.C = m.id, msg.Src, noc.KindMemBlockAck, msg.C
		}

	default:
		// Format a copy, not msg: a pointer handed to fmt leaks, which
		// would send whatever message a caller services to the heap.
		m.Fault(fmt.Errorf("memory received unexpected %s", *msg))
	}
}

// DumpState implements sim.StateDumper.
func (m *Memory) DumpState() string {
	// Heap order, not delivery order: a deadlock report wants to see
	// every request under way, each with the cycle it is delivered.
	return fmt.Sprintf("inbox=%d pending-out=%d%s", m.inbox.Len(), m.out.Len(), m.inbox.Describe())
}
