package noc

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/snap"
)

// heapEntry is one message of the reference model: its (cycle,
// sequence) key and the id the test stamps into the message's B field.
type heapEntry struct {
	at  sim.Cycle
	seq int64
	id  int64
}

// TestMsgHeapModel drives random Push, PushNew, Pop and Release
// sequences through a MsgHeap and a sorted-slice reference. Pops must
// come out in (cycle, sequence) order with the message that went in, no
// slot may be handed out while another live message holds it — filed in
// the heap or popped and not yet released — a slot handed out must be
// zero, released slots must be reused, and a snapshot/restore round trip
// mid-sequence must leave a heap that carries on identically.
func TestMsgHeapModel(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRand(seed)
		var q MsgHeap
		var ref []heapEntry       // filed, sorted by (at, seq)
		held := map[int32]int64{} // popped, unreleased slot -> id
		var seq, id int64
		peak := 0 // most messages live at once
		file := func(at sim.Cycle) {
			seq++
			id++
			if rng.Intn(2) == 0 {
				q.Push(at, seq, Message{Kind: KindMemRead32, A: int64(at), B: id, Data: []byte{byte(id)}})
			} else {
				m := q.PushNew(at, seq)
				if !reflect.ValueOf(*m).IsZero() {
					t.Fatalf("seed %d: PushNew handed out a slot holding %s", seed, *m)
				}
				m.Kind, m.A, m.B = KindMemReadResp, int64(at), id
			}
			ref = append(ref, heapEntry{at, seq, id})
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].at != ref[j].at {
					return ref[i].at < ref[j].at
				}
				return ref[i].seq < ref[j].seq
			})
		}
		for step := 0; step < 400; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				file(sim.Cycle(rng.Intn(40))) // few cycles: many ties, broken by seq
			case op < 7 && len(ref) > 0:
				slot, got := q.Pop()
				want := ref[0]
				ref = ref[1:]
				if got.B != want.id || got.A != int64(want.at) {
					t.Fatalf("%s: popped id %d (cycle %d), want id %d (cycle %d)", when, got.B, got.A, want.id, want.at)
				}
				held[slot] = want.id
			case op < 9 && len(held) > 0:
				slots := make([]int32, 0, len(held))
				for slot := range held {
					slots = append(slots, slot)
				}
				sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
				slot := slots[rng.Intn(len(slots))]
				q.Release(slot)
				delete(held, slot)
			case op == 9 && len(held) == 0:
				// Snapshots are taken between ticks, when nothing is held.
				// Restore into a heap with a history of its own, which must
				// go; the reference carries on unchanged.
				w := snap.NewEncoder()
				q.Walk(w)
				var restored MsgHeap
				restored.Push(3, 1, Message{B: -1, Data: []byte{1}})
				slot, _ := restored.Pop()
				restored.Release(slot)
				restored.PushNew(5, 2).B = -2
				r := snap.NewDecoder(w.Payload())
				if restored.Walk(r); r.ExpectEOF() != nil {
					t.Fatalf("%s: restore: %v", when, r.Err())
				}
				q = restored
			}
			// Every live slot is distinct and holds its message.
			live := map[int32]bool{}
			for s, hid := range held {
				live[s] = true
				if q.slab[s].B != hid {
					t.Fatalf("%s: held slot %d holds id %d, want %d", when, s, q.slab[s].B, hid)
				}
			}
			for _, r := range q.refs {
				if live[r.slot] {
					t.Fatalf("%s: slot %d handed out twice while live", when, r.slot)
				}
				live[r.slot] = true
			}
			// Released slots are recycled: the slab never outgrows the
			// most messages that were live at once.
			peak = max(peak, len(live))
			if len(q.slab) > peak {
				t.Fatalf("%s: slab of %d slots for at most %d live messages", when, len(q.slab), peak)
			}
			if q.Len() != len(ref) {
				t.Fatalf("%s: heap holds %d, reference %d", when, q.Len(), len(ref))
			}
			earliest := sim.Never
			if len(ref) > 0 {
				earliest = ref[0].at
			}
			if q.Earliest() != earliest {
				t.Fatalf("%s: Earliest() = %d, want %d", when, q.Earliest(), earliest)
			}
			for now := sim.Cycle(0); now < 40; now += 13 {
				if want := len(ref) > 0 && ref[0].at <= now; q.Due(now) != want {
					t.Fatalf("%s: due(%d) = %v, want %v", when, now, q.Due(now), want)
				}
			}
		}
	}
}
