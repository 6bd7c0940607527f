package noc

import (
	"repro/internal/sim"
	"repro/internal/snap"
)

// WalkMessage writes or reads every message field, including a payload
// copy: an in-flight DMA packet's buffer belongs to the machine state.
// It serves every component whose queues hold Messages.
func WalkMessage(c *snap.Codec, m *Message) {
	snap.Int(c, &m.Src)
	snap.Int(c, &m.Dst)
	snap.Byte(c, &m.Kind)
	snap.Int(c, &m.Pad)
	for _, p := range []*int64{&m.A, &m.B, &m.C, &m.D} {
		snap.Int(c, p)
	}
	c.Bytes(&m.Data)
}

// Walk writes or reads the heap's entries in (at, seq) order, the order
// they pop in, so the internal layout stays behaviour-invisible. It is
// taken between ticks, when no popped slot is held.
func (q *MsgHeap) Walk(c *snap.Codec) {
	if c.Reading() {
		q.Reset()
	}
	snap.Heap(c, &q.refs, func(c *snap.Codec, ref *timedRef) {
		snap.Int(c, &ref.at)
		snap.Int(c, &ref.seq)
		var msg Message
		if !c.Reading() {
			msg = q.slab[ref.slot]
		}
		WalkMessage(c, &msg)
		if c.Reading() {
			q.slab = append(q.slab, msg)
			ref.slot = int32(len(q.slab) - 1)
		}
	})
}

// Walk writes or reads the interconnect's mutable state at cycle now,
// the engine's clock: bus bookings, the bookings whose grant lies beyond
// now, the send sequence and the statistics. A sent message is its
// endpoint's to save; of it the network keeps only the send sequence and
// the Messages count, which took it in at the hand-over (Stats asks the
// endpoints which of those the clock has not reached).
// Endpoint registrations and the packet-buffer pool are
// construction-time wiring and perf caches, not state, so a read needs a
// network of the same configuration and wiring.
func (n *Network) Walk(c *snap.Codec, now sim.Cycle) {
	if c.Reading() {
		n.Reset()
	} else {
		// Settling first makes the blob a function of the traffic and
		// the clock alone, whenever Stats was or was not read.
		n.settle(now)
	}
	snap.Fixed(c, "noc: buses", n.busFree, snap.Int[sim.Cycle])
	for i := range c.Len(n.gLen) {
		var g grant
		if !c.Reading() {
			g = n.grants[(n.gHead+i)&(len(n.grants)-1)]
		}
		snap.Int(c, &g.at)
		snap.Int(c, &g.occ)
		snap.Int(c, &g.wire)
		if c.Reading() {
			n.pushGrant(g)
		}
	}
	snap.Int(c, &n.seq)
	for _, p := range []*int64{&n.stats.Messages, &n.stats.Bytes, &n.stats.BusyCycles} {
		snap.Int(c, p)
	}
	snap.Int(c, &n.stats.MaxQueue)
}
