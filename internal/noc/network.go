package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint is a ticked endpoint (Register): the network keeps its
// messages and calls Deliver from its own Tick at the delivery cycle, in
// (delivery cycle, send order). The network is the engine's first
// component, so a Deliver runs before anything else on that cycle — which
// is what an endpoint needs when its delivery acts: writes a local store,
// moves an inbox high-water mark or a back-pressure threshold, or sends.
type Endpoint interface {
	Deliver(now sim.Cycle, m Message)
}

// TimedEndpoint is a timed endpoint (RegisterTimed): one whose delivery
// would do nothing but queue the message and ask for a tick on the next
// cycle. A message's delivery cycle is known when it is sent, so Send
// hands such an endpoint the message on the spot and the network spends
// no engine event on it; the endpoint must behave exactly as if
// Deliver(at, m) had run first thing on cycle at, which comes to:
//
//   - keep the message, ordered by (at, seq) if it can hold several,
//     and wake itself for at+1 — the tick a Deliver at cycle at would
//     have asked for;
//   - in any Tick(now), treat the messages with at <= now as delivered
//     and the rest as not there yet (a tick on cycle at itself, due for
//     some other reason, already sees the message: the network would
//     have delivered it earlier in that pass);
//   - never return a next-tick cycle beyond at+1 while it holds an
//     undelivered message: a tick in between consumes the engine's one
//     schedule slot for the component, the at+1 wake included.
//
// The kind is fixed at registration. An endpoint in a touch group must
// be ticked: EarliestDeliveryTo reads the network's own delivery heap.
type TimedEndpoint interface {
	// DeliverAt takes a message at Send time. at is its delivery cycle
	// (at least MinDeliveryLatency cycles ahead) and seq its position in
	// the network's send order, the tie-break among equal cycles.
	DeliverAt(at sim.Cycle, seq int64, m Message)
	// Undelivered returns how many messages taken through DeliverAt have
	// a delivery cycle beyond now. The network asks when its statistics
	// are read, so that Stats.Messages counts a message from its delivery
	// cycle on for both endpoint kinds.
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

// occupancy returns the bus cycles a message of wire bytes occupies.
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
// and HopLatency is added on top. The SPU's local-store burst window
// leans on this bound: an effect another component originates at or
// after the component-agnostic quiescence horizon cannot reach a
// local-store-writing endpoint any sooner. A change to the arbitration
// rules or wire format that lets a message deliver faster must update
// this bound (TestMinDeliveryLatency pins it).
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

// delRef is one sent, undelivered message in the delivery heap. The
// payload Message lives in a slab (delSlab) so heap sifts move 24-byte
// refs instead of ~100-byte messages, and the touch-group scan
// (EarliestDeliveryTo) reads only this compact array.
type delRef struct {
	at   sim.Cycle
	seq  int64
	slot int32
	grp  int16 // touch group of the destination (-1 unwatched)
}

// Before orders deliveries by (completion cycle, send order) for the
// typed min-heap.
func (d delRef) Before(o delRef) bool {
	if d.at != o.at {
		return d.at < o.at
	}
	return d.seq < o.seq
}

// port is one registered endpoint; exactly one of the two is set.
type port struct {
	ticked Endpoint
	timed  TimedEndpoint
}

func (p port) bound() bool { return p.ticked != nil || p.timed != nil }

// Network is the interconnect component. Arbitration is FIFO in send
// order and a grant never frees a bus, so everything about a message's
// transit — grant cycle, bus, occupancy, delivery cycle — is already
// decided when it is sent. Send computes it and then either hands the
// message to a timed endpoint, which costs the network no engine event,
// or files the delivery for a ticked one, whose only network event is
// the Tick that delivers it.
type Network struct {
	cfg    Config
	handle *sim.Handle
	// eps is a dense slice indexed by endpoint id: the machine allocates
	// small consecutive ids, and endpoint lookup is on the per-message
	// hot path.
	eps []port
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
	dels        []delRef
	delSlab     []Message
	delFree     []int32
	seq         int64
	stats       Stats

	// bufs is the machine's packet-buffer free list: DMA data packets
	// (memory block reads, MFC PUT streams) borrow buffers here instead
	// of allocating one per packet, and the consumer returns them once
	// the payload is copied out. The network owns the pool because both
	// producers (memory, every MFC) already hold a *Network, and a
	// machine is single-threaded, so a plain LIFO needs no locking.
	bufs [][]byte

	// Touch groups (DeclareTouchGroup): epGroup maps an endpoint id to
	// its group (-1 when unwatched) and flightTo counts the sent,
	// undelivered messages addressed to each group. The SPU's
	// local-store burst window uses them to ask when the network will
	// next deliver into one SPE's local store, without being clamped by
	// traffic for every other endpoint; flightTo lets the scan
	// short-circuit in the common no-traffic case.
	epGroup  []int16
	flightTo []int32

	// Rec, when non-nil, receives one message-transit span per message
	// (send -> delivery at the destination), recorded at Send.
	Rec *trace.Recorder
}

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

// New creates a network with the given configuration; Attach must be
// called with the engine handle before use.
func New(cfg Config) *Network {
	if cfg.Buses <= 0 || cfg.BytesPerCyc <= 0 {
		panic("noc: non-positive bus configuration")
	}
	return &Network{
		cfg:     cfg,
		busFree: make([]sim.Cycle, cfg.Buses),
	}
}

// Name implements sim.Component.
func (n *Network) Name() string { return "noc" }

// Attach stores the engine wake handle.
func (n *Network) Attach(h *sim.Handle) { n.handle = h }

// Register binds an endpoint id to a ticked receiver.
func (n *Network) Register(id int, ep Endpoint) {
	n.bind(id, port{ticked: ep})
}

// RegisterTimed binds an endpoint id to a timed receiver.
func (n *Network) RegisterTimed(id int, ep TimedEndpoint) {
	if n.groupOf(id) >= 0 {
		panic(fmt.Sprintf("noc: timed endpoint %d is in a touch group", id))
	}
	n.bind(id, port{timed: ep})
}

func (n *Network) bind(id int, p port) {
	if id < 0 {
		panic(fmt.Sprintf("noc: negative endpoint %d", id))
	}
	if !p.bound() {
		panic(fmt.Sprintf("noc: nil endpoint %d", id))
	}
	for id >= len(n.eps) {
		n.eps = append(n.eps, port{})
	}
	if n.eps[id].bound() {
		panic(fmt.Sprintf("noc: duplicate endpoint %d", id))
	}
	n.eps[id] = p
}

// endpoint resolves an id; the zero port when unregistered.
func (n *Network) endpoint(id int) port {
	if id < 0 || id >= len(n.eps) {
		return port{}
	}
	return n.eps[id]
}

// DeclareTouchGroup associates endpoints with a small group id so the
// per-group message state (EarliestDeliveryTo) is tracked. The CellDTA
// machine declares one group per SPE, holding the SPE's MFC and LSE
// endpoints — the only endpoints whose deliveries can mutate that SPE's
// local store. An endpoint belongs to at most one group, declared once
// at machine construction: moving an endpoint whose messages are
// already in flight would corrupt the per-group counters (and with them
// the SPU burst window), so re-declaring an endpoint into a different
// group panics.
func (n *Network) DeclareTouchGroup(group int, eps ...int) {
	if group < 0 {
		panic(fmt.Sprintf("noc: negative touch group %d", group))
	}
	for group >= len(n.flightTo) {
		n.flightTo = append(n.flightTo, 0)
	}
	for _, ep := range eps {
		if ep < 0 {
			panic(fmt.Sprintf("noc: negative endpoint %d in touch group", ep))
		}
		for ep >= len(n.epGroup) {
			n.epGroup = append(n.epGroup, -1)
		}
		if g := n.epGroup[ep]; g >= 0 && g != int16(group) {
			panic(fmt.Sprintf("noc: endpoint %d already in touch group %d", ep, g))
		}
		if n.endpoint(ep).timed != nil {
			panic(fmt.Sprintf("noc: timed endpoint %d in touch group %d", ep, group))
		}
		n.epGroup[ep] = int16(group)
	}
}

// groupOf returns the touch group of a destination (-1 when unwatched).
func (n *Network) groupOf(dst int) int16 {
	if dst < 0 || dst >= len(n.epGroup) {
		return -1
	}
	return n.epGroup[dst]
}

// EarliestDeliveryTo returns the cycle of the earliest delivery to any
// endpoint of the group among the messages sent so far, or sim.Never
// when none is under way. Every sent message has its delivery cycle
// fixed at Send, so the result is exact, not a bound. The per-group
// count makes the common no-traffic case O(1).
func (n *Network) EarliestDeliveryTo(group int) sim.Cycle {
	if group < 0 || group >= len(n.flightTo) || n.flightTo[group] == 0 {
		return sim.Never
	}
	min := sim.Never
	for i := range n.dels {
		if d := &n.dels[i]; d.grp == int16(group) && d.at < min {
			min = d.at
		}
	}
	return min
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

// settleToClock settles against the engine clock, for the readers that
// have no cycle of their own to pass, and returns that cycle.
func (n *Network) settleToClock() sim.Cycle {
	var now sim.Cycle
	if e := n.handle.Engine(); e != nil {
		now = e.Now()
		n.settle(now)
	}
	return now
}

// undelivered counts the messages handed to timed endpoints whose
// delivery cycle is beyond now.
func (n *Network) undelivered(now sim.Cycle) int {
	k := 0
	for _, p := range n.eps {
		if p.timed != nil {
			k += p.timed.Undelivered(now)
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

// Stats returns a copy of the statistics as of the engine's current
// cycle: bookings granted and messages delivered at or before it. (On a
// cycle the engine has reached but not run yet, the ticked deliveries of
// that cycle are still to come and the timed ones already count; a run
// is read at its stop cycle, which has run.)
func (n *Network) Stats() Stats {
	now := n.settleToClock()
	st := n.stats
	st.Messages -= int64(n.undelivered(now))
	return st
}

// Reset clears all in-flight traffic, bus bookings and statistics for
// machine reuse. Endpoint registrations and the packet-buffer pool are
// kept.
func (n *Network) Reset() {
	n.gHead, n.gLen = 0, 0
	n.dels = n.dels[:0]
	for i := range n.delSlab {
		n.delSlab[i] = Message{} // release payload references
	}
	n.delSlab = n.delSlab[:0]
	n.delFree = n.delFree[:0]
	for i := range n.busFree {
		n.busFree[i] = 0
	}
	for i := range n.flightTo {
		n.flightTo[i] = 0
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
// the earlier ones whose grant cycle is still ahead of now. That is
// exact because the network is the engine's first component — by the
// time anything sends at cycle now, the grants of cycle now have
// happened (the machine asserts the registration index).
func (n *Network) Send(now sim.Cycle, m Message) {
	dst := n.endpoint(m.Dst)
	if !dst.bound() {
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
	occ := n.cfg.occupancy(wire)
	n.busFree[bus] = granted + occ
	n.pushGrant(grant{at: granted, occ: int32(occ), wire: int32(wire)})
	if n.gLen > n.stats.MaxQueue {
		n.stats.MaxQueue = n.gLen
	}
	at := granted + occ + sim.Cycle(n.cfg.HopLatency)
	if n.Rec != nil {
		n.Rec.NoC(m.Src, m.Dst, uint8(m.Kind), wire, now, at)
	}
	n.seq++
	if dst.timed != nil {
		// Counted here, at the hand-over; Stats takes back the ones whose
		// delivery cycle the clock has not reached.
		n.stats.Messages++
		dst.timed.DeliverAt(at, n.seq, m)
		return
	}

	g := n.groupOf(m.Dst)
	if g >= 0 {
		n.flightTo[g]++
	}
	var slot int32
	if k := len(n.delFree); k > 0 {
		slot = n.delFree[k-1]
		n.delFree = n.delFree[:k-1]
	} else {
		n.delSlab = append(n.delSlab, Message{})
		slot = int32(len(n.delSlab) - 1)
	}
	n.delSlab[slot] = m
	// The network is always scheduled for its earliest delivery (Tick
	// returns it), so only a new earliest needs a wake.
	if len(n.dels) == 0 || at < n.dels[0].at {
		n.handle.Wake(at)
	}
	sim.HeapPush(&n.dels, delRef{at: at, seq: n.seq, slot: slot, grp: g})
}

// Tick completes the deliveries to ticked endpoints due at now, in
// (delivery cycle, send order) — a Send made by an endpoint from inside
// Deliver lands at least MinDeliveryLatency cycles ahead and never joins
// the loop that made it — and returns the next delivery cycle.
func (n *Network) Tick(now sim.Cycle) sim.Cycle {
	for len(n.dels) > 0 && n.dels[0].at <= now {
		d := sim.HeapPop(&n.dels)
		if d.grp >= 0 {
			n.flightTo[d.grp]--
		}
		msg := n.delSlab[d.slot]
		n.delSlab[d.slot] = Message{} // release Data for the GC
		n.delFree = append(n.delFree, d.slot)
		n.stats.Messages++
		n.eps[msg.Dst].ticked.Deliver(now, msg)
	}
	if len(n.dels) > 0 {
		return n.dels[0].at
	}
	return sim.Never
}

// DumpState implements sim.StateDumper.
func (n *Network) DumpState() string {
	now := n.settleToClock()
	return fmt.Sprintf("queued=%d in-flight=%d", n.gLen, len(n.dels)+n.undelivered(now)-n.gLen)
}
