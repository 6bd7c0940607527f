// Package stats defines the measurement taxonomy of the reproduction:
// the per-SPU execution-time breakdown of paper Figure 5 (working, idle,
// memory stalls, LS stalls, LSE stalls, prefetching overhead), the
// dynamic instruction counts of paper Table 5 (total, LOAD, STORE, READ,
// WRITE) and the pipeline-usage metric of paper Figure 9.
package stats

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/isa"
)

// Bucket is one category of the SPU execution-time breakdown.
type Bucket int

const (
	Working  Bucket = iota // at least one instruction issued this cycle
	Idle                   // no thread available to run
	MemStall               // waiting for main memory (blocking READ, full store buffer)
	LSStall                // waiting for local-store data (frame loads, LS reads)
	LSEStall               // waiting for the scheduler (FALLOC response, LSE backpressure)
	Prefetch               // executing/stalled in a PF block (DMA programming overhead)
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"Working", "Idle", "Memory Stalls", "LS Stalls", "LSE Stalls", "Prefetching",
}

func (b Bucket) String() string {
	if b >= 0 && b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// Breakdown counts cycles per bucket.
type Breakdown [NumBuckets]int64

// Add accumulates n cycles into bucket k.
func (b *Breakdown) Add(k Bucket, n int64) { b[k] += n }

// Total returns the cycle count across all buckets.
func (b Breakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Percent returns bucket k as a percentage of the total (0 when empty).
func (b Breakdown) Percent(k Bucket) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(b[k]) / float64(t)
}

// Merge adds o into b.
func (b *Breakdown) Merge(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// InstrCounts is the dynamic instruction mix (paper Table 5 plus the
// DTA/MFC management instructions).
type InstrCounts struct {
	Total int64
	Load  int64 // frame reads (LOAD/LOADX)
	Store int64 // frame writes (STORE/STOREX)
	Read  int64 // main-memory reads (READ/READ8)
	Write int64 // main-memory writes (WRITE/WRITE8)
	LSDir int64 // direct local-store accesses (LSRD*/LSWR*)
	DTA   int64 // FALLOC/FALLOCX/FFREE/STOP
	MFC   int64 // MFC channel/enqueue/status instructions
}

// Add counts n executions of op in the total and in op's class.
func (c *InstrCounts) Add(op isa.Op, n int64) {
	c.Total += n
	switch op {
	case isa.LOAD, isa.LOADX:
		c.Load += n
	case isa.STORE, isa.STOREX:
		c.Store += n
	case isa.READ, isa.READ8:
		c.Read += n
	case isa.WRITE, isa.WRITE8:
		c.Write += n
	case isa.LSRD, isa.LSRD8, isa.LSWR, isa.LSWR8, isa.LSRDX, isa.LSRDX8,
		isa.LSWRX, isa.LSWRX8:
		c.LSDir += n
	case isa.FALLOC, isa.FALLOCX, isa.FFREE, isa.STOP:
		c.DTA += n
	case isa.MFCLSA, isa.MFCEA, isa.MFCSZ, isa.MFCTAG, isa.MFCGET, isa.MFCPUT,
		isa.MFCSTAT:
		c.MFC += n
	}
}

// Merge adds o into c.
func (c *InstrCounts) Merge(o InstrCounts) {
	c.Total += o.Total
	c.Load += o.Load
	c.Store += o.Store
	c.Read += o.Read
	c.Write += o.Write
	c.LSDir += o.LSDir
	c.DTA += o.DTA
	c.MFC += o.MFC
}

// SPU aggregates one SPU's activity for a run. The cycle and
// instruction counts — Breakdown, Causes, Instr, IssuedSlots — are
// folded from the machine's guest profile when the run ends
// (Profile.Fold), so Breakdown == Causes.Buckets() and IssuedSlots ==
// Instr.Total hold by construction; the SPU counts the rest itself.
type SPU struct {
	Breakdown   Breakdown
	Causes      CauseBreakdown // fine-grained refinement of Breakdown (see Cause)
	Instr       InstrCounts
	IssuedSlots int64 // instructions issued (for pipeline usage: slots/2 per cycle)
	Cycles      int64 // cycles the SPU was simulated (run length)
	Threads     int64 // thread executions completed
	PFBlocks    int64 // PF blocks executed
}

// PipelineUsage returns the fraction of issue slots used (paper Fig. 9):
// issued instructions over 2*cycles for the dual-issue SPU.
func (s SPU) PipelineUsage() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IssuedSlots) / float64(2*s.Cycles)
}

// Merge adds o into s (for averaging across SPUs).
func (s *SPU) Merge(o SPU) {
	s.Breakdown.Merge(o.Breakdown)
	s.Causes.Merge(o.Causes)
	s.Instr.Merge(o.Instr)
	s.IssuedSlots += o.IssuedSlots
	s.Cycles += o.Cycles
	s.Threads += o.Threads
	s.PFBlocks += o.PFBlocks
}

// Table is a minimal aligned text table used by the experiment harness
// to print the paper's tables and figure series. The JSON tags are the
// wire format served by the dtad API (internal/service) — renaming them
// breaks cached result documents and golden tests.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintf(w, "%s\n", b.String())
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
}

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Ratio formats a speedup with two decimals.
func Ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
