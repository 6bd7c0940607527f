package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	r.SPUUnit(0, UnitThread, 0, 10, 1, 2)
	r.SPUBurst(0, 0, 10)
	r.DMA(0, 0, 128, 3, 0, 1, 2)
	r.NoC(0, 1, 0, 32, 0, 5)
	r.Thread(Event{At: 1, Kind: Dispatch})
	r.Reset()
	if r.SPUSpans() != nil || r.DMASpans() != nil || r.NoCSpans() != nil || r.ThreadEvents() != nil ||
		r.DroppedSpans() != 0 {
		t.Fatal("nil recorder leaked state")
	}
}

// TestRecorderCapPerTrackAndReset overflows every track by one: each
// keeps DefaultSpanCap entries, the four extras count as drops, and
// Reset clears all of it.
func TestRecorderCapPerTrackAndReset(t *testing.T) {
	r := NewRecorder()
	for i := 0; i <= DefaultSpanCap; i++ {
		c := sim.Cycle(i)
		r.SPUUnit(i, UnitThread, c, c+1, int64(i), 0)
		r.DMA(i, 1, 64, int64(i), c, c, c+2)
		r.NoC(i, 0, 2, 16, c, c+3)
		r.Thread(Event{At: c, SPE: i, Kind: Dispatch})
	}
	if len(r.SPUSpans()) != DefaultSpanCap || len(r.DMASpans()) != DefaultSpanCap ||
		len(r.NoCSpans()) != DefaultSpanCap || len(r.ThreadEvents()) != DefaultSpanCap {
		t.Fatalf("track lens = %d/%d/%d/%d, want %d each", len(r.SPUSpans()), len(r.DMASpans()),
			len(r.NoCSpans()), len(r.ThreadEvents()), DefaultSpanCap)
	}
	if r.DroppedSpans() != 4 {
		t.Fatalf("dropped = %d, want 4", r.DroppedSpans())
	}
	if r.SPUSpans()[0].SPE != 0 || r.SPUSpans()[1].SPE != 1 {
		t.Fatalf("emission order lost: %+v", r.SPUSpans()[:2])
	}
	r.Reset()
	if len(r.SPUSpans()) != 0 || len(r.DMASpans()) != 0 || len(r.NoCSpans()) != 0 ||
		r.DroppedSpans() != 0 || len(r.ThreadEvents()) != 0 {
		t.Fatal("Reset did not clear all tracks")
	}
	// The recorder stays usable after Reset (machine reuse).
	r.SPUBurst(0, 0, 8)
	if len(r.SPUSpans()) != 1 || r.SPUSpans()[0].Unit != UnitBurst {
		t.Fatalf("post-Reset span = %+v", r.SPUSpans())
	}
}

// TestBufferOrderingAfterOverflow: overflow must not perturb what the
// thread track already recorded — past DefaultSpanCap it keeps its
// first events, in order, and counts every later one as dropped.
func TestBufferOrderingAfterOverflow(t *testing.T) {
	r := NewRecorder()
	first := []Event{
		{At: 1, Kind: FrameAlloc, Thread: 7},
		{At: 2, Kind: Dispatch, Thread: 7},
		{At: 9, Kind: Done, Thread: 7},
	}
	for _, e := range first {
		r.Thread(e)
	}
	for i := len(first); i < DefaultSpanCap+100; i++ {
		r.Thread(Event{At: 1000, Kind: FrameFreed})
	}
	got := r.ThreadEvents()
	if len(got) != DefaultSpanCap || r.DroppedSpans() != 100 {
		t.Fatalf("kept %d, dropped %d; want %d and 100", len(got), r.DroppedSpans(), DefaultSpanCap)
	}
	for i, want := range first {
		if got[i] != want {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want)
		}
	}
}

// TestBufferDefaultCapacity: the thread track holds exactly
// DefaultSpanCap events before the first drop.
func TestBufferDefaultCapacity(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < DefaultSpanCap; i++ {
		r.Thread(Event{At: 1})
	}
	if len(r.ThreadEvents()) != DefaultSpanCap || r.DroppedSpans() != 0 {
		t.Fatalf("at cap: kept %d, dropped %d; want %d and 0",
			len(r.ThreadEvents()), r.DroppedSpans(), DefaultSpanCap)
	}
	r.Thread(Event{At: 1})
	if len(r.ThreadEvents()) != DefaultSpanCap || r.DroppedSpans() != 1 {
		t.Fatalf("past cap: kept %d, dropped %d; want %d and 1",
			len(r.ThreadEvents()), r.DroppedSpans(), DefaultSpanCap)
	}
}

// TestRecorderDefaultCap: every span track of a fresh recorder holds
// exactly DefaultSpanCap spans before the first drop.
func TestRecorderDefaultCap(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < DefaultSpanCap; i++ {
		c := sim.Cycle(i)
		r.SPUBurst(0, c, c+1)
		r.DMA(0, 0, 64, 0, c, c, c+1)
		r.NoC(0, 1, 0, 16, c, c+1)
	}
	if r.DroppedSpans() != 0 {
		t.Fatalf("dropped %d spans at the cap, want 0", r.DroppedSpans())
	}
	if len(r.SPUSpans()) != DefaultSpanCap || len(r.DMASpans()) != DefaultSpanCap ||
		len(r.NoCSpans()) != DefaultSpanCap {
		t.Fatalf("track lens = %d/%d/%d, want %d each",
			len(r.SPUSpans()), len(r.DMASpans()), len(r.NoCSpans()), DefaultSpanCap)
	}
}

func TestUnitKindNames(t *testing.T) {
	if UnitThread.String() != "thread" || UnitPF.String() != "pf" || UnitBurst.String() != "burst" {
		t.Fatal("unit kind names wrong")
	}
}
