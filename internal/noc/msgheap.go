package noc

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/sim"
)

// timedRef is one entry of a MsgHeap. The message itself lives in the
// heap's slab (indexed by slot) so sifts move 24-byte refs instead of
// whole Messages.
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

// MsgHeap holds messages that each become due at a cycle, earliest
// first and in sequence order within a cycle. An endpoint's arrivals
// are one, by (delivery cycle, send order); so is the memory's response
// queue, by (ready cycle, service order).
//
// The heap hands out slab slots, not messages, so a message is not
// copied on its way through: it is copied into its slot once, or built
// in it (PushNew), and read there when popped. A slot popped from the
// heap holds its message until Release. Every free slot is zero.
type MsgHeap struct {
	refs []timedRef
	slab []Message // payloads for refs, indexed by slot
	free []int32   // recycled slab slots
}

// Len returns the number of messages filed.
func (q *MsgHeap) Len() int { return len(q.refs) }

// Earliest returns the earliest cycle filed, or sim.Never when the heap
// is empty.
func (q *MsgHeap) Earliest() sim.Cycle {
	if len(q.refs) == 0 {
		return sim.Never
	}
	return q.refs[0].at
}

// Due reports whether the earliest entry's cycle is at or before now.
func (q *MsgHeap) Due(now sim.Cycle) bool { return len(q.refs) > 0 && q.refs[0].at <= now }

// Push files a copy of msg under (at, seq).
func (q *MsgHeap) Push(at sim.Cycle, seq int64, msg Message) { *q.PushNew(at, seq) = msg }

// PushNew files a zero slot under (at, seq) and returns it for the
// caller to fill in place. The pointer is good until the next Push or
// PushNew, which may move the slab.
func (q *MsgHeap) PushNew(at sim.Cycle, seq int64) *Message {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slab = append(q.slab, Message{})
		slot = int32(len(q.slab) - 1)
	}
	sim.HeapPush(&q.refs, timedRef{at: at, seq: seq, slot: slot})
	return &q.slab[slot]
}

// Pop removes the earliest entry and returns its slot and message. The
// message stays in the slot until Release; the pointer is good until the
// next Push or PushNew.
func (q *MsgHeap) Pop() (int32, *Message) {
	slot := sim.HeapPop(&q.refs).slot
	return slot, &q.slab[slot]
}

// Release zeroes a popped slot, dropping its payload reference, and
// recycles it.
func (q *MsgHeap) Release(slot int32) {
	q.slab[slot] = Message{}
	q.free = append(q.free, slot)
}

// PopDue removes the earliest entry if it is due at now and returns a
// copy of its message, for a receiver that takes its arrivals by value;
// ok is false when nothing is due.
func (q *MsgHeap) PopDue(now sim.Cycle) (m Message, ok bool) {
	if !q.Due(now) {
		return Message{}, false
	}
	slot, p := q.Pop()
	m = *p
	q.Release(slot)
	return m, true
}

// Beyond returns how many entries are filed under a cycle after now: an
// endpoint's Undelivered, when its arrivals are the heap.
func (q *MsgHeap) Beyond(now sim.Cycle) int {
	k := 0
	for _, ref := range q.refs {
		if ref.at > now {
			k++
		}
	}
	return k
}

// Describe lists every filed message with its cycle, in heap order, for
// a deadlock report: " [kind from src at cycle]" each.
func (q *MsgHeap) Describe() string {
	var b strings.Builder
	for at, m := range q.All() {
		fmt.Fprintf(&b, " [%s from %d at %d]", m.Kind, m.Src, at)
	}
	return b.String()
}

// Has reports whether an entry is filed under cycle at. It visits only
// the entries at or before at.
func (q *MsgHeap) Has(at sim.Cycle) bool {
	return len(q.refs) > 0 && q.refs[0].at <= at && q.hasFrom(0, at)
}

func (q *MsgHeap) hasFrom(i int, at sim.Cycle) bool {
	for i < len(q.refs) && q.refs[i].at <= at {
		if q.refs[i].at == at || q.hasFrom(2*i+1, at) {
			return true
		}
		i = 2*i + 2
	}
	return false
}

// All yields every filed entry's cycle and message, in heap order.
func (q *MsgHeap) All() iter.Seq2[sim.Cycle, *Message] {
	return func(yield func(sim.Cycle, *Message) bool) {
		for _, ref := range q.refs {
			if !yield(ref.at, &q.slab[ref.slot]) {
				return
			}
		}
	}
}

// Reset empties the heap.
func (q *MsgHeap) Reset() {
	q.refs = q.refs[:0]
	clear(q.slab) // release payload references
	q.slab = q.slab[:0]
	q.free = q.free[:0]
}
