package dta

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
)

// DSEConfig holds per-DSE parameters.
type DSEConfig struct {
	ServiceRate int // FALLOC requests processed per cycle
}

// DefaultDSEConfig returns the default DSE parameters.
func DefaultDSEConfig() DSEConfig { return DSEConfig{ServiceRate: 1} }

// DSEStats aggregates distribution activity.
type DSEStats struct {
	Requests  int64 // FALLOC requests received
	Forwards  int64 // requests pushed to a peer DSE (node full)
	MaxQueue  int
	StallsAll int64 // cycles the head request waited with the node full
}

// DSE is the Distributed Scheduler Element of one node: it receives
// FALLOC requests, picks the least-loaded PE with a free frame
// (round-robin on ties) and forwards the request to that PE's LSE. When
// every PE in the node is full the request is forwarded to a peer node's
// DSE ("forwarding it to other nodes when internal resources are
// finished", paper §2); with no peers it queues until a frame frees.
type DSE struct {
	cfg    DSEConfig
	id     int
	node   int
	net    *noc.Network
	handle *sim.Handle

	lseEPs    []int // LSE endpoints of this node's PEs
	freeCount []int // conservative free-frame counts per PE
	epToIndex map[int]int
	peers     []int // other nodes' DSE endpoints, in forwarding order

	// arrivals holds the messages sent to the DSE, by (delivery cycle,
	// send order), until its tick on or after that cycle takes them.
	arrivals noc.MsgHeap
	queue    []noc.Message
	rr       int
	stats    DSEStats
}

// NewDSE creates the DSE for node with the given LSE endpoints and their
// initial free-frame counts.
func NewDSE(cfg DSEConfig, id, node int, net *noc.Network, lseEPs []int, framesPerPE int, peers []int) *DSE {
	if cfg.ServiceRate <= 0 {
		panic("dta: non-positive DSE service rate")
	}
	d := &DSE{
		cfg: cfg, id: id, node: node, net: net,
		lseEPs:    append([]int(nil), lseEPs...),
		epToIndex: make(map[int]int),
		peers:     append([]int(nil), peers...),
	}
	for i, ep := range d.lseEPs {
		d.freeCount = append(d.freeCount, framesPerPE)
		d.epToIndex[ep] = i
	}
	return d
}

// Name implements sim.Component.
func (d *DSE) Name() string { return fmt.Sprintf("dse%d", d.node) }

// Attach stores the engine wake handle.
func (d *DSE) Attach(h *sim.Handle) { d.handle = h }

// Stats returns a copy of the accumulated statistics.
func (d *DSE) Stats() DSEStats { return d.stats }

// Reset restores the DSE's free-frame view and clears the request
// queue and statistics for machine reuse. framesPerPE must match the
// (unchanged) LSE configuration.
func (d *DSE) Reset(framesPerPE int) {
	for i := range d.freeCount {
		d.freeCount[i] = framesPerPE
	}
	d.arrivals.Reset()
	d.queue = d.queue[:0]
	d.rr = 0
	d.stats = DSEStats{}
}

// DeliverAt implements noc.Endpoint: the message waits in arrivals, and
// the DSE wakes for the cycle after its delivery — the first on which it
// can act on it.
func (d *DSE) DeliverAt(at sim.Cycle, seq int64, m noc.Message) {
	d.arrivals.Push(at, seq, m)
	d.handle.Wake(at + 1)
}

// Undelivered implements noc.Endpoint.
func (d *DSE) Undelivered(now sim.Cycle) int { return d.arrivals.Beyond(now) }

// take acts on the messages delivered by now: a request joins the queue,
// a freed frame counts in its PE's free-frame view (and may unblock the
// queue head).
func (d *DSE) take(now sim.Cycle) {
	for msg, ok := d.arrivals.PopDue(now); ok; msg, ok = d.arrivals.PopDue(now) {
		switch msg.Kind {
		case noc.KindFallocReq:
			d.stats.Requests++
			d.queue = append(d.queue, msg)
			if len(d.queue) > d.stats.MaxQueue {
				d.stats.MaxQueue = len(d.queue)
			}
		case noc.KindFrameFreed:
			if idx, ok := d.epToIndex[int(msg.Src)]; ok {
				d.freeCount[idx]++
			}
		default:
			panic(fmt.Sprintf("dse%d received unexpected %s", d.node, msg))
		}
	}
}

// Tick distributes queued FALLOC requests.
func (d *DSE) Tick(now sim.Cycle) sim.Cycle {
	d.take(now)
	n := d.cfg.ServiceRate
	for n > 0 && len(d.queue) > 0 {
		msg := d.queue[0]
		target := d.pickTarget()
		if target < 0 {
			// Node full: forward to a peer node if the request has not
			// already visited every node, otherwise hold.
			hops := int(msg.A >> 32)
			if len(d.peers) > 0 && hops < len(d.peers) {
				fwd := msg
				fwd.A = msg.A&0xFFFFFFFF | int64(hops+1)<<32
				fwd.Src = int32(d.id)
				fwd.Dst = int32(d.peers[0])
				d.net.Send(now, fwd)
				d.stats.Forwards++
				d.queue = d.queue[1:]
				n--
				continue
			}
			d.stats.StallsAll++
			break
		}
		d.freeCount[target]--
		d.net.Send(now, noc.Message{
			Src: int32(d.id), Dst: int32(d.lseEPs[target]), Kind: noc.KindFallocFwd,
			A: msg.A & 0xFFFFFFFF, B: msg.B, C: msg.C, D: msg.D,
		})
		d.queue = d.queue[1:]
		n--
	}
	if len(d.queue) > 0 {
		// Throttled by service rate, or the head can still be forwarded
		// to a peer: work next cycle. Otherwise the node is full and the
		// head cannot travel further; sleep until KindFrameFreed wakes
		// the DSE.
		if d.canPlace() || d.canForward(d.queue[0]) {
			return now + 1
		}
	}
	if d.arrivals.Len() > 0 {
		return d.arrivals.Earliest() + 1
	}
	return sim.Never
}

// canPlace reports whether any local PE has a free frame (no round-robin
// side effects).
func (d *DSE) canPlace() bool {
	for _, f := range d.freeCount {
		if f > 0 {
			return true
		}
	}
	return false
}

// canForward reports whether msg may still be pushed to a peer node.
func (d *DSE) canForward(msg noc.Message) bool {
	return len(d.peers) > 0 && int(msg.A>>32) < len(d.peers)
}

// pickTarget returns the PE index with the most free frames (round-robin
// tiebreak), or -1 when the node is full.
func (d *DSE) pickTarget() int {
	best, bestFree := -1, 0
	n := len(d.lseEPs)
	for off := 0; off < n; off++ {
		i := (d.rr + off) % n
		if d.freeCount[i] > bestFree {
			best, bestFree = i, d.freeCount[i]
		}
	}
	if best >= 0 {
		d.rr = (best + 1) % n
	}
	return best
}

// DumpState implements sim.StateDumper.
func (d *DSE) DumpState() string {
	return fmt.Sprintf("queue=%d free=%v arrivals=%d%s", len(d.queue), d.freeCount, d.arrivals.Len(), d.arrivals.Describe())
}
