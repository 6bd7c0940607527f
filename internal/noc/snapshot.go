package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snap"
)

// snapshotMessage serialises every message field, including a payload
// copy: an in-flight DMA packet's buffer belongs to the machine state.
func snapshotMessage(w *snap.Writer, m Message) {
	w.Int(m.Src)
	w.Int(m.Dst)
	w.U8(uint8(m.Kind))
	w.I64(int64(m.Pad))
	w.I64(m.A)
	w.I64(m.B)
	w.I64(m.C)
	w.I64(m.D)
	w.WriteBytes(m.Data)
}

func restoreMessage(r *snap.Reader) Message {
	var m Message
	m.Src = r.Int()
	m.Dst = r.Int()
	m.Kind = Kind(r.U8())
	m.Pad = int32(r.I64())
	m.A = r.I64()
	m.B = r.I64()
	m.C = r.I64()
	m.D = r.I64()
	m.Data = r.ReadBytes()
	return m
}

// SnapshotMessage/RestoreMessage expose the wire-message codec to the
// components whose queues hold Messages (mem, mfc, dta).
func SnapshotMessage(w *snap.Writer, m Message) { snapshotMessage(w, m) }
func RestoreMessage(r *snap.Reader) Message     { return restoreMessage(r) }

// Snapshot serialises the interconnect's mutable state: bus bookings,
// the bookings whose grant lies beyond the engine clock, every sent,
// undelivered message to a ticked endpoint with its delivery cycle, and
// the statistics. A message handed to a timed endpoint is that
// endpoint's to save; of it the network keeps only the send sequence and
// the Messages count, which took it in at the hand-over (Stats asks the
// endpoints which of those the clock has not reached).
// Endpoint registrations, touch-group declarations and the
// packet-buffer pool are construction-time wiring and perf caches, not
// state. The per-group in-flight counters are recomputed on restore.
func (n *Network) Snapshot(w *snap.Writer) {
	w.Int(len(n.busFree))
	for _, f := range n.busFree {
		w.I64(int64(f))
	}
	// Settling first makes the blob a function of the traffic and the
	// clock alone, whenever Stats was or was not read along the way.
	n.settleToClock()
	w.Int(n.gLen)
	for i := 0; i < n.gLen; i++ {
		g := n.grants[(n.gHead+i)&(len(n.grants)-1)]
		w.I64(int64(g.at))
		w.I64(int64(g.occ))
		w.I64(int64(g.wire))
	}
	// Live deliveries in heap-pop order would mutate the heap; the slab
	// layout is arbitrary, so emit refs in slice order — restore re-pushes
	// them and the (at, seq) total order makes pop order layout-invariant.
	w.Int(len(n.dels))
	for _, d := range n.dels {
		w.I64(int64(d.at))
		w.I64(d.seq)
		snapshotMessage(w, n.delSlab[d.slot])
	}
	w.I64(n.seq)
	w.I64(n.stats.Messages)
	w.I64(n.stats.Bytes)
	w.I64(n.stats.BusyCycles)
	w.Int(n.stats.MaxQueue)
}

// Restore rewinds the network to a snapshot. The network must have the
// same configuration (bus count) and endpoint/touch-group wiring as the
// one that produced the snapshot.
func (n *Network) Restore(r *snap.Reader) error {
	n.Reset()
	nb := r.Int()
	if r.Err() == nil && nb != len(n.busFree) {
		return fmt.Errorf("noc: snapshot has %d buses, network has %d", nb, len(n.busFree))
	}
	for i := 0; i < nb; i++ {
		n.busFree[i] = sim.Cycle(r.I64())
	}
	ng := r.Int()
	for i := 0; i < ng; i++ {
		g := grant{at: sim.Cycle(r.I64()), occ: int32(r.I64()), wire: int32(r.I64())}
		if r.Err() != nil {
			return r.Err()
		}
		n.pushGrant(g)
	}
	nd := r.Int()
	for i := 0; i < nd; i++ {
		at := sim.Cycle(r.I64())
		seq := r.I64()
		msg := restoreMessage(r)
		if r.Err() != nil {
			return r.Err()
		}
		g := n.groupOf(msg.Dst)
		if g >= 0 {
			n.flightTo[g]++
		}
		n.delSlab = append(n.delSlab, msg)
		slot := int32(len(n.delSlab) - 1)
		sim.HeapPush(&n.dels, delRef{at: at, seq: seq, slot: slot, grp: g})
	}
	n.seq = r.I64()
	n.stats.Messages = r.I64()
	n.stats.Bytes = r.I64()
	n.stats.BusyCycles = r.I64()
	n.stats.MaxQueue = r.Int()
	return r.Err()
}
