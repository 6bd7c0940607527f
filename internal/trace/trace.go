// Package trace records thread-lifecycle events — the states of paper
// Figure 4 — into a bounded buffer, so users can watch a DTA activity
// unfold: frame allocation, the stores that drain a synchronisation
// counter, the Program-DMA / Wait-DMA detour added by prefetching,
// dispatch, completion and frame reuse.
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Kind labels a lifecycle event.
type Kind uint8

const (
	// FrameAlloc: a frame was allocated for a new thread (paper: leaves
	// "Wait for frame").
	FrameAlloc Kind = iota
	// StoresDone: the thread's SC reached zero (leaves "Wait for stores").
	StoresDone
	// ProgramDMA: the thread entered the PF queue (paper Fig. 4 state 2a).
	ProgramDMA
	// WaitDMA: the PF block finished with transfers in flight (state 2b).
	WaitDMA
	// Ready: all data local; waiting for the pipeline.
	Ready
	// Dispatch: the SPU started executing PL/EX/PS.
	Dispatch
	// PFDispatch: the SPU started executing the PF block.
	PFDispatch
	// Done: STOP completed (including any write-back drain).
	Done
	// FrameFreed: the frame slot returned to the free pool.
	FrameFreed
)

var kindNames = map[Kind]string{
	FrameAlloc: "frame-alloc",
	StoresDone: "stores-done",
	ProgramDMA: "program-dma",
	WaitDMA:    "wait-dma",
	Ready:      "ready",
	Dispatch:   "dispatch",
	PFDispatch: "pf-dispatch",
	Done:       "done",
	FrameFreed: "frame-freed",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one lifecycle transition.
type Event struct {
	At       sim.Cycle
	SPE      int
	Kind     Kind
	Thread   int64 // per-LSE thread sequence number
	Template int
}

func (e Event) String() string {
	return fmt.Sprintf("%8d spe%d %-12s thread=%d tmpl=%d",
		e.At, e.SPE, e.Kind, e.Thread, e.Template)
}

// Buffer is a bounded event sink shared by all LSEs of a machine: a
// Recorder's Threads track. A nil *Buffer is a valid no-op sink, so
// tracing costs nothing when disabled.
type Buffer struct {
	cap    int
	events []Event
}

// NewBuffer returns a sink holding at most capacity events (extra events
// are dropped).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{cap: capacity}
}

// Emit records an event (no-op on a nil buffer).
func (b *Buffer) Emit(e Event) {
	if b == nil {
		return
	}
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
	}
}

// Events returns the recorded events in emission order.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events
}
