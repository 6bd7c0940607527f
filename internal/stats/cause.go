package stats

import "fmt"

// Cause refines Bucket into the stall taxonomy of the guest profiler:
// every simulated SPU cycle is attributed to exactly one Cause, and each
// Cause folds statically into one Figure-5 bucket via Bucket(). The
// refinement splits MemStall into blocking-READ vs store-buffer-full,
// LSEStall into FALLOC-wait vs backpressure, and Prefetch into
// DMA-programming vs DMA-wait vs MFC-queue-full, so a profile can answer
// *why* a bucket filled, not just that it did.
//
// The mapping is total and static. The SPU charges causes only, to the
// guest profile, and an SPU's Breakdown is its Causes folded by
// Cause.Bucket() (CauseBreakdown.Buckets), so the two never drift.
type Cause int

const (
	// CauseIssue: at least one instruction issued this cycle (Working).
	CauseIssue Cause = iota
	// CauseDepStall: scoreboard wait on a compute-unit result (Working).
	CauseDepStall
	// CauseBubble: dispatch refill, taken-branch penalty or MFC channel
	// occupancy (Working).
	CauseBubble
	// CauseMFCWait: scoreboard wait on an MFCSTAT status result outside a
	// PF block (Working) — a PS-block tag poll spinning on the DMA engine.
	CauseMFCWait
	// CauseIdle: no thread available to run (Idle).
	CauseIdle
	// CauseBlockingRead: blocking main-memory READ round trip (MemStall).
	CauseBlockingRead
	// CauseStoreBufFull: main-memory store buffer full (MemStall).
	// Reserved: the modelled machine posts WRITEs to the interconnect
	// without bounding them, so this cause never fires today; it keeps
	// the taxonomy aligned with the paper's MemStall definition.
	CauseStoreBufFull
	// CauseLSWait: scoreboard wait on a local-store or frame-load result
	// (LSStall).
	CauseLSWait
	// CauseFallocWait: FALLOC round trip to the scheduler (LSEStall).
	CauseFallocWait
	// CauseLSEBackpressure: LSE input queue full — STORE, FALLOC, FFREE
	// or STOP retried (LSEStall).
	CauseLSEBackpressure
	// CauseMFCQueueFull: MFC command queue full, MFCGET/MFCPUT retried
	// outside a PF block (Prefetch).
	CauseMFCQueueFull
	// CauseDMAProgram: PF-block cycles programming the DMA unit — issue,
	// channel-interface occupancy, dependency waits (Prefetch).
	CauseDMAProgram
	// CauseDMAWait: PF-block cycles waiting on the DMA engine itself —
	// MFCSTAT status waits and full-queue retries (Prefetch).
	CauseDMAWait
	NumCauses
)

var causeBuckets = [NumCauses]Bucket{
	CauseIssue:           Working,
	CauseDepStall:        Working,
	CauseBubble:          Working,
	CauseMFCWait:         Working,
	CauseIdle:            Idle,
	CauseBlockingRead:    MemStall,
	CauseStoreBufFull:    MemStall,
	CauseLSWait:          LSStall,
	CauseFallocWait:      LSEStall,
	CauseLSEBackpressure: LSEStall,
	CauseMFCQueueFull:    Prefetch,
	CauseDMAProgram:      Prefetch,
	CauseDMAWait:         Prefetch,
}

// Bucket returns the Figure-5 bucket this cause folds into.
func (c Cause) Bucket() Bucket {
	return causeBuckets[c]
}

var causeNames = [NumCauses]string{
	"issue", "dep-stall", "bubble", "mfc-wait", "idle",
	"blocking-read", "store-buffer-full", "ls-wait",
	"falloc-wait", "lse-backpressure",
	"mfc-queue-full", "dma-program", "dma-wait",
}

func (c Cause) String() string {
	if c >= 0 && c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

var causeSlugs = [NumCauses]string{
	"issue", "dep_stall", "bubble", "mfc_wait", "idle",
	"blocking_read", "store_buffer_full", "ls_wait",
	"falloc_wait", "lse_backpressure",
	"mfc_queue_full", "dma_program", "dma_wait",
}

// Slug returns the snake_case identifier used in metric names, JSON
// keys and pprof sample-type names.
func (c Cause) Slug() string {
	if c >= 0 && c < NumCauses {
		return causeSlugs[c]
	}
	return fmt.Sprintf("cause_%d", int(c))
}

// CauseBreakdown counts cycles per cause.
type CauseBreakdown [NumCauses]int64

// Add accumulates n cycles into cause c.
func (b *CauseBreakdown) Add(c Cause, n int64) { b[c] += n }

// Total returns the cycle count across all causes.
func (b CauseBreakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Merge adds o into b.
func (b *CauseBreakdown) Merge(o CauseBreakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Buckets folds the cause counts into the Figure-5 buckets: an SPU's
// Breakdown is its Causes folded here (Profile.Fold).
func (b CauseBreakdown) Buckets() Breakdown {
	var out Breakdown
	for c := Cause(0); c < NumCauses; c++ {
		out[c.Bucket()] += b[c]
	}
	return out
}

// StallPct returns the percentage of cycles in the paper's stall
// buckets (MemStall + LSStall + LSEStall) — the headline number the
// prefetch transformation attacks. 0 when the breakdown is empty.
func (b Breakdown) StallPct() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(b[MemStall]+b[LSStall]+b[LSEStall]) / float64(t)
}
