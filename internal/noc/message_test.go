package noc

import (
	"testing"
	"unsafe"
)

// TestMessageSize pins Message at 72 bytes. A blocking READ copies its
// request and its response by value several times (Send, DeliverAt, the
// memory's slots). Go on amd64 copies a struct of 80 bytes or more —
// any multiple of 16 above 64 — through runtime.duffcopy, which was a
// tenth of an original-DTA run's profile; 72 bytes are a few wide moves.
// A field added to Message must keep it under 80 bytes or show why the
// copies are worth it.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 72 {
		t.Fatalf("noc.Message is %d bytes, want 72", got)
	}
}

// TestOccupancyTable holds the network's occupancy table against the
// rule it caches, Config.occupancy, for every wire size up to one past
// the table's end, under bus widths that do not divide the header; and
// Send must book what the rule says on both sides of the table's end.
func TestOccupancyTable(t *testing.T) {
	for _, bpc := range []int{3, 5, 8} {
		cfg := Config{Buses: 1, BytesPerCyc: bpc, HopLatency: 2}
		n := New(cfg)
		if len(n.occ) <= HeaderBytes+minBufCap {
			t.Fatalf("table of %d sizes does not cover a header and a pooled packet buffer", len(n.occ))
		}
		for w := 0; w <= len(n.occ); w++ {
			if got, want := n.occupancy(w), cfg.occupancy(w); got != want {
				t.Fatalf("BytesPerCyc %d: occupancy(%d) = %d, rule says %d", bpc, w, got, want)
			}
		}
		for _, payload := range []int{0, 1, 4, 128, len(n.occ) - HeaderBytes - 1, len(n.occ) - HeaderBytes, 1000} {
			n := New(cfg)
			n.Register(2, &sink{})
			n.Send(0, Message{Src: 1, Dst: 2, Kind: KindMemBlockData, Data: make([]byte, payload)})
			if got, want := n.Stats(1).BusyCycles, int64(cfg.occupancy(HeaderBytes+payload)); got != want {
				t.Fatalf("BytesPerCyc %d, %d-byte payload: Send booked %d bus cycles, rule says %d", bpc, payload, got, want)
			}
		}
	}
}
