package trace

import "repro/internal/sim"

// SPUUnitKind discriminates what an SPUSpan covers.
type SPUUnitKind uint8

const (
	// UnitThread: a full PL/EX/PS execution of one thread.
	UnitThread SPUUnitKind = iota
	// UnitPF: a prefetch (PF) block execution.
	UnitPF
	// UnitBurst: a burst-execution window — cycles the SPU simulated in
	// bulk inside one engine tick, ahead of the engine clock.
	UnitBurst
)

func (k SPUUnitKind) String() string {
	switch k {
	case UnitThread:
		return "thread"
	case UnitPF:
		return "pf"
	case UnitBurst:
		return "burst"
	}
	return "unit(?)"
}

// SPUSpan is one SPU occupancy window: a dispatched work unit (thread or
// PF block) or a burst window, half-open [Start, End).
type SPUSpan struct {
	SPE      int
	Unit     SPUUnitKind
	Start    sim.Cycle
	End      sim.Cycle
	Thread   int64 // thread sequence number (UnitThread/UnitPF)
	Template int
}

// DMASpan is one MFC DMA command lifetime: Issued (enqueued), Launched
// (head of queue, first packet on the wire), Done (last byte landed /
// ack received and tag count dropped).
type DMASpan struct {
	SPE      int
	Dir      uint8 // 0 = get (mem->LS), 1 = put (LS->mem)
	Size     int64
	Tag      int64
	Issued   sim.Cycle
	Launched sim.Cycle
	Done     sim.Cycle
}

// NoCSpan is one message transit: Sent (arrival at the output queue),
// Delivered (handed to the destination endpoint).
type NoCSpan struct {
	Src       int
	Dst       int
	Kind      uint8 // noc.Kind
	Bytes     int
	Sent      sim.Cycle
	Delivered sim.Cycle
}

// DefaultSpanCap bounds each of a Recorder's tracks; what a track
// receives past it is dropped and counted (DroppedSpans).
const DefaultSpanCap = 1 << 16

// Recorder collects per-component timeline spans and thread-lifecycle
// events for one machine run. A nil *Recorder is a valid no-op sink:
// every method nil-checks, so components keep a plain field and pay one
// predictable branch when recording is off — the steady-state cycle
// loop stays allocation-free.
type Recorder struct {
	spu     []SPUSpan
	dma     []DMASpan
	noc     []NoCSpan
	threads []Event
	dropped int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// push appends v to track unless the track is full, which counts a drop.
func push[T any](r *Recorder, track *[]T, v T) {
	if len(*track) >= DefaultSpanCap {
		r.dropped++
		return
	}
	*track = append(*track, v)
}

// SPUUnit records a completed SPU work unit (thread or PF block).
func (r *Recorder) SPUUnit(spe int, unit SPUUnitKind, start, end sim.Cycle, thread int64, template int) {
	if r != nil {
		push(r, &r.spu, SPUSpan{SPE: spe, Unit: unit, Start: start, End: end, Thread: thread, Template: template})
	}
}

// SPUBurst records a burst window [start, end).
func (r *Recorder) SPUBurst(spe int, start, end sim.Cycle) {
	if r != nil {
		push(r, &r.spu, SPUSpan{SPE: spe, Unit: UnitBurst, Start: start, End: end})
	}
}

// DMA records a completed MFC command lifetime.
func (r *Recorder) DMA(spe int, dir uint8, size, tag int64, issued, launched, done sim.Cycle) {
	if r != nil {
		push(r, &r.dma, DMASpan{SPE: spe, Dir: dir, Size: size, Tag: tag, Issued: issued, Launched: launched, Done: done})
	}
}

// NoC records a delivered message span.
func (r *Recorder) NoC(src, dst int, kind uint8, bytes int, sent, delivered sim.Cycle) {
	if r != nil {
		push(r, &r.noc, NoCSpan{Src: src, Dst: dst, Kind: kind, Bytes: bytes, Sent: sent, Delivered: delivered})
	}
}

// Thread records a thread-lifecycle event (the LSEs emit them).
func (r *Recorder) Thread(e Event) {
	if r != nil {
		push(r, &r.threads, e)
	}
}

// SPUSpans returns the recorded SPU occupancy spans in emission order.
func (r *Recorder) SPUSpans() []SPUSpan {
	if r == nil {
		return nil
	}
	return r.spu
}

// DMASpans returns the recorded DMA command lifetimes.
func (r *Recorder) DMASpans() []DMASpan {
	if r == nil {
		return nil
	}
	return r.dma
}

// NoCSpans returns the recorded message transits.
func (r *Recorder) NoCSpans() []NoCSpan {
	if r == nil {
		return nil
	}
	return r.noc
}

// ThreadEvents returns the recorded lifecycle events in emission order.
func (r *Recorder) ThreadEvents() []Event {
	if r == nil {
		return nil
	}
	return r.threads
}

// DroppedSpans returns how many spans and events exceeded a track's
// capacity: a non-zero count means the timeline is truncated.
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset clears all tracks for machine reuse, keeping their storage.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spu = r.spu[:0]
	r.dma = r.dma[:0]
	r.noc = r.noc[:0]
	r.threads = r.threads[:0]
	r.dropped = 0
}
