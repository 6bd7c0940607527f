package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint is a message receiver. A message's delivery cycle is known
// when it is sent, so Send hands the endpoint the message on the spot
// and the network spends no engine event on it. The endpoint keeps the
// message until its own tick on or after the delivery cycle, and that
// tick acts on it as if the message had just arrived:
//
//   - keep the message, ordered by (at, seq) if it can hold several
//     (MsgHeap), and wake for the cycle that first acts on it: at itself
//     when the endpoint acts on arrival (the MFC writes DMA data into the
//     local store, the PPE stores the root frame or stops the machine),
//     at+1 when arrival only queues the message (memory, SPU, LSE, DSE);
//   - in any Tick(now), treat the messages with at <= now as delivered
//     and the rest as not there yet;
//   - never return a next-tick cycle beyond that wake while it holds an
//     undelivered message: a tick in between consumes the engine's one
//     schedule slot for the component, the wake included.
//
// An endpoint may also act on a message at DeliverAt, ahead of the tick
// that would have, when nothing can tell the two apart: what the tick
// would do is already decided, it happens before the engine's slice
// ends (sim.Engine.SliceEnd), and the endpoint's statistics and
// Undelivered still count it from that tick's cycle. The memory services
// a scalar READ this way (mem.Memory).
type Endpoint interface {
	// DeliverAt takes a message at Send time. at is its delivery cycle
	// (at least MinDeliveryLatency cycles ahead) and seq its position in
	// the network's send order, the tie-break among equal cycles.
	DeliverAt(at sim.Cycle, seq int64, m Message)
	// Undelivered returns how many messages taken through DeliverAt have
	// a delivery cycle beyond now. The network asks when its statistics
	// are read, so that Stats.Messages counts a message from its delivery
	// cycle on.
	Undelivered(now sim.Cycle) int
}

// Config holds interconnect parameters (paper Table 4).
type Config struct {
	Buses       int // number of parallel buses (4)
	BytesPerCyc int // per-bus bandwidth (8 B/cycle)
	HopLatency  int // fixed transit latency added to every transfer
}

// DefaultConfig returns the paper's communication-subsystem parameters.
func DefaultConfig() Config {
	return Config{Buses: 4, BytesPerCyc: 8, HopLatency: 4}
}

// occupancy returns the bus cycles a message of wire bytes occupies. It
// is the rule; Network.occupancy serves it from a table.
func (c Config) occupancy(wire int) sim.Cycle {
	return sim.Cycle(max(1, (wire+c.BytesPerCyc-1)/c.BytesPerCyc))
}

// minOccupancy returns the fewest bus cycles any message can occupy:
// even an empty payload carries the HeaderBytes wire header.
func (c Config) minOccupancy() sim.Cycle { return c.occupancy(HeaderBytes) }

// MinDeliveryLatency returns a lower bound on the cycles between a Send
// at cycle c and that message's delivery: a bus is granted no earlier
// than the cycle after injection, the bus transfer occupies at least
// minOccupancy cycles (every message carries the HeaderBytes header),
// and HopLatency is added on top. The memory's service at hand-over
// leans on this bound (mem.Memory): no request sent later can be
// delivered before one due this soon. A change to the arbitration rules
// or wire format that lets a message deliver faster must update this
// bound (TestMinDeliveryLatency pins it).
func (c Config) MinDeliveryLatency() sim.Cycle {
	return 1 + c.minOccupancy() + sim.Cycle(c.HopLatency)
}

// Stats aggregates interconnect activity.
type Stats struct {
	Messages   int64 // total messages delivered
	Bytes      int64 // total wire bytes transferred
	BusyCycles int64 // sum of bus occupancy over all buses
	MaxQueue   int   // high-water mark of the arbitration queue
}

// grant is the bus booking of one sent message whose grant cycle a
// sender has not yet seen pass (see Network.settle).
type grant struct {
	at   sim.Cycle // cycle the message gets its bus
	occ  int32     // bus cycles it occupies
	wire int32     // bytes it puts on the bus
}

// Network is the interconnect. Arbitration is FIFO in send order and a
// grant never frees a bus, so everything about a message's transit —
// grant cycle, bus, occupancy, delivery cycle — is already decided when
// it is sent. Send computes it and hands the message to its endpoint,
// which holds it until then: the network is not an engine component
// and has no events of its own.
type Network struct {
	cfg Config
	// occ[w] is cfg.occupancy(w) for every wire size w the machine's
	// messages have (header, scalar payloads, DMA packets), so Send
	// divides only for a message past the table's end.
	occ []sim.Cycle
	// eps is a dense slice indexed by endpoint id: the machine allocates
	// small consecutive ids, and endpoint lookup is on the per-message
	// hot path.
	eps []Endpoint
	// busFree[i] is the cycle bus i finishes its last booked transfer.
	busFree []sim.Cycle
	// grants is a ring (power-of-two capacity, gLen entries from gHead)
	// of the bookings whose grant cycle no sender has seen pass yet, in
	// send order — which is also grant order, since grant cycles never
	// decrease along the FIFO. It exists for the statistics alone: its
	// length is the arbitration-queue depth a sender sees, and a booking
	// enters BusyCycles/Bytes when it leaves the ring (settle).
	grants      []grant
	gHead, gLen int
	seq         int64
	stats       Stats

	// bufs is the machine's packet-buffer free list: DMA data packets
	// (memory block reads, MFC PUT streams) borrow buffers here instead
	// of allocating one per packet, and the consumer returns them once
	// the payload is copied out. The network owns the pool because both
	// producers (memory, every MFC) already hold a *Network, and a
	// machine is single-threaded, so a plain LIFO needs no locking.
	bufs [][]byte

	// Rec, when non-nil, receives one message-transit span per message
	// (send -> delivery at the destination), recorded at Send.
	Rec *trace.Recorder
}

// occTableLen is the length of the occupancy table: every wire size up
// to a header plus a full pooled packet buffer.
const occTableLen = HeaderBytes + minBufCap + 1

// minBufCap is the minimum capacity of a pooled packet buffer. DMA
// tail packets are smaller than the packetisation size; allocating
// them with at least this capacity keeps every pooled buffer usable
// for every default-config packet (PacketBytes 128), so the pool never
// churns on size mismatches.
const minBufCap = 256

// GetBuf returns a packet buffer of length size from the pool
// (allocating when the pool is empty or its top buffer is too small —
// the pool is never drained hunting for a fit).
func (n *Network) GetBuf(size int) []byte {
	if k := len(n.bufs); k > 0 {
		if b := n.bufs[k-1]; cap(b) >= size {
			n.bufs = n.bufs[:k-1]
			return b[:size]
		}
	}
	c := size
	if c < minBufCap {
		c = minBufCap
	}
	return make([]byte, size, c)
}

// PutBuf returns a packet buffer to the pool. Callers must not retain
// the slice afterwards.
func (n *Network) PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	n.bufs = append(n.bufs, b)
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Buses <= 0 || cfg.BytesPerCyc <= 0 {
		panic("noc: non-positive bus configuration")
	}
	occ := make([]sim.Cycle, occTableLen)
	for w := range occ {
		occ[w] = cfg.occupancy(w)
	}
	return &Network{
		cfg:     cfg,
		occ:     occ,
		busFree: make([]sim.Cycle, cfg.Buses),
	}
}

// MinDeliveryLatency is the configuration's MinDeliveryLatency: no
// message sent at cycle c or later is delivered before c plus it.
func (n *Network) MinDeliveryLatency() sim.Cycle { return n.cfg.MinDeliveryLatency() }

// occupancy returns the bus cycles a message of wire bytes occupies.
func (n *Network) occupancy(wire int) sim.Cycle {
	if wire < len(n.occ) {
		return n.occ[wire]
	}
	return n.cfg.occupancy(wire)
}

// Register binds an endpoint id to its receiver.
func (n *Network) Register(id int, ep Endpoint) {
	if id < 0 {
		panic(fmt.Sprintf("noc: negative endpoint %d", id))
	}
	if ep == nil {
		panic(fmt.Sprintf("noc: nil endpoint %d", id))
	}
	for id >= len(n.eps) {
		n.eps = append(n.eps, nil)
	}
	if n.eps[id] != nil {
		panic(fmt.Sprintf("noc: duplicate endpoint %d", id))
	}
	n.eps[id] = ep
}

// endpoint resolves an id; nil when unregistered.
func (n *Network) endpoint(id int) Endpoint {
	if id < 0 || id >= len(n.eps) {
		return nil
	}
	return n.eps[id]
}

// settle retires the bookings whose grant cycle is at or before now:
// they leave the arbitration queue and enter BusyCycles and Bytes. The
// statistics count a message from its grant, not from its Send, so a
// run that stops with messages still waiting for a bus does not report
// transfers that never started.
func (n *Network) settle(now sim.Cycle) {
	for n.gLen > 0 {
		g := &n.grants[n.gHead]
		if g.at > now {
			return
		}
		n.stats.BusyCycles += int64(g.occ)
		n.stats.Bytes += int64(g.wire)
		n.gHead = (n.gHead + 1) & (len(n.grants) - 1)
		n.gLen--
	}
}

// undelivered counts the messages handed to endpoints whose delivery
// cycle is beyond now.
func (n *Network) undelivered(now sim.Cycle) int {
	k := 0
	for _, ep := range n.eps {
		if ep != nil {
			k += ep.Undelivered(now)
		}
	}
	return k
}

// pushGrant appends a booking to the ring, doubling it when full.
func (n *Network) pushGrant(g grant) {
	if n.gLen == len(n.grants) {
		grown := make([]grant, max(8, 2*len(n.grants)))
		for i := 0; i < n.gLen; i++ {
			grown[i] = n.grants[(n.gHead+i)&(len(n.grants)-1)]
		}
		n.grants, n.gHead = grown, 0
	}
	n.grants[(n.gHead+n.gLen)&(len(n.grants)-1)] = g
	n.gLen++
}

// Stats returns a copy of the statistics as of cycle now, the engine's
// clock: bookings granted and messages delivered at or before it.
func (n *Network) Stats(now sim.Cycle) Stats {
	n.settle(now)
	st := n.stats
	st.Messages -= int64(n.undelivered(now))
	return st
}

// Reset clears all in-flight traffic, bus bookings and statistics for
// machine reuse. Endpoint registrations and the packet-buffer pool are
// kept.
func (n *Network) Reset() {
	n.gHead, n.gLen = 0, 0
	for i := range n.busFree {
		n.busFree[i] = 0
	}
	n.seq = 0
	n.stats = Stats{}
}

// Send hands a message to the network at cycle now and decides its whole
// transit on the spot. The rule is that of a tick-driven FIFO arbiter
// (the reference model in network_test.go): the head of the queue gets
// a bus on the first cycle after its injection on which one is free —
// the earliest-free bus, lowest index on ties — and a blocked head
// blocks the rest. Send cycles never decrease and a grant only pushes a
// bus's free cycle out, so that decision depends on nothing sent later:
//
//	grant    = max(now+1, free cycle of the earliest-free bus)
//	delivery = grant + occupancy + HopLatency
//
// Queue depth is what such an arbiter's sender sees: this message plus
// the earlier ones whose grant cycle is still ahead of now. (The
// arbiter grants at the start of a cycle, before that cycle's sends, so
// the bookings granted at now have left the queue.)
func (n *Network) Send(now sim.Cycle, m Message) {
	dst := n.endpoint(int(m.Dst))
	if dst == nil {
		panic(fmt.Sprintf("noc: send to unregistered endpoint: %s", m))
	}
	n.settle(now)
	bus := 0
	for i := 1; i < len(n.busFree); i++ {
		if n.busFree[i] < n.busFree[bus] {
			bus = i
		}
	}
	granted := max(now+1, n.busFree[bus])
	wire := m.WireSize()
	occ := n.occupancy(wire)
	n.busFree[bus] = granted + occ
	n.pushGrant(grant{at: granted, occ: int32(occ), wire: int32(wire)})
	if n.gLen > n.stats.MaxQueue {
		n.stats.MaxQueue = n.gLen
	}
	at := granted + occ + sim.Cycle(n.cfg.HopLatency)
	if n.Rec != nil {
		n.Rec.NoC(int(m.Src), int(m.Dst), uint8(m.Kind), wire, now, at)
	}
	n.seq++
	// Counted here, at the hand-over; Stats takes back the ones whose
	// delivery cycle the clock has not reached.
	n.stats.Messages++
	dst.DeliverAt(at, n.seq, m)
}
