// Package trace records a machine run's timeline into a Recorder with
// four bounded tracks: SPU occupancy, MFC DMA lifetimes, NoC message
// transits and thread-lifecycle events — the states of paper Figure 4,
// so users can watch a DTA activity unfold: frame allocation, the
// stores that drain a synchronisation counter, the Program-DMA /
// Wait-DMA detour added by prefetching, dispatch, completion and frame
// reuse.
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
