package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestBufferOrderingAfterOverflow(t *testing.T) {
	// Overflow must not perturb what was already recorded: emit past
	// the cap, then check order and contents match the first emissions
	// exactly.
	b := NewBuffer(3)
	want := []Event{
		{At: 1, Kind: FrameAlloc, Thread: 7},
		{At: 2, Kind: Dispatch, Thread: 7},
		{At: 9, Kind: Done, Thread: 7},
	}
	for _, e := range want {
		b.Emit(e)
	}
	for i := 0; i < 100; i++ {
		b.Emit(Event{At: 1000, Kind: FrameFreed})
	}
	got := b.Events()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBufferDefaultCapacity(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 1025; i++ {
		b.Emit(Event{At: 1})
	}
	if len(b.Events()) != 1024 {
		t.Fatalf("len = %d, want 1024", len(b.Events()))
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	r.SPUUnit(0, UnitThread, 0, 10, 1, 2)
	r.SPUBurst(0, 0, 10)
	r.DMA(0, 0, 128, 3, 0, 1, 2)
	r.NoC(0, 1, 0, 32, 0, 5)
	r.Reset()
	if r.SPUSpans() != nil || r.DMASpans() != nil || r.NoCSpans() != nil || r.DroppedSpans() != 0 {
		t.Fatal("nil recorder leaked state")
	}
}

func TestRecorderCapPerTrackAndReset(t *testing.T) {
	r := NewRecorder(2)
	if r.Threads == nil {
		t.Fatal("recorder without Threads buffer")
	}
	for i := 0; i < 3; i++ {
		c := sim.Cycle(i)
		r.SPUUnit(i, UnitThread, c, c+1, int64(i), 0)
		r.DMA(i, 1, 64, int64(i), c, c, c+2)
		r.NoC(i, 0, 2, 16, c, c+3)
	}
	if len(r.SPUSpans()) != 2 || len(r.DMASpans()) != 2 || len(r.NoCSpans()) != 2 {
		t.Fatalf("track lens = %d/%d/%d, want 2 each",
			len(r.SPUSpans()), len(r.DMASpans()), len(r.NoCSpans()))
	}
	if r.DroppedSpans() != 3 {
		t.Fatalf("dropped = %d, want 3", r.DroppedSpans())
	}
	if r.SPUSpans()[0].SPE != 0 || r.SPUSpans()[1].SPE != 1 {
		t.Fatalf("emission order lost: %+v", r.SPUSpans())
	}
	r.Threads.Emit(Event{At: 1, Kind: Dispatch})
	r.Reset()
	if len(r.SPUSpans()) != 0 || len(r.DMASpans()) != 0 || len(r.NoCSpans()) != 0 ||
		r.DroppedSpans() != 0 || len(r.Threads.Events()) != 0 {
		t.Fatal("Reset did not clear all tracks")
	}
	// The recorder stays usable after Reset (machine reuse).
	r.SPUBurst(0, 0, 8)
	if len(r.SPUSpans()) != 1 || r.SPUSpans()[0].Unit != UnitBurst {
		t.Fatalf("post-Reset span = %+v", r.SPUSpans())
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	r := NewRecorder(0)
	if r.cap != DefaultSpanCap {
		t.Fatalf("cap = %d, want %d", r.cap, DefaultSpanCap)
	}
}

func TestUnitKindNames(t *testing.T) {
	if UnitThread.String() != "thread" || UnitPF.String() != "pf" || UnitBurst.String() != "burst" {
		t.Fatal("unit kind names wrong")
	}
}
