package trace_test

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestNilBufferIsNoOp: a nil recorder's thread track takes events
// without panicking and reports none.
func TestNilBufferIsNoOp(t *testing.T) {
	var r *trace.Recorder
	r.Thread(trace.Event{}) // must not panic
	if r.ThreadEvents() != nil || r.DroppedSpans() != 0 {
		t.Fatal("nil recorder's thread track not empty")
	}
}

// TestBufferCapacityAndDrop: the thread track keeps the first
// DefaultSpanCap events emitted and counts the rest as dropped.
func TestBufferCapacityAndDrop(t *testing.T) {
	r := trace.NewRecorder()
	for i := 0; i < trace.DefaultSpanCap+5; i++ {
		r.Thread(trace.Event{Thread: int64(i)})
	}
	got := r.ThreadEvents()
	if len(got) != trace.DefaultSpanCap || got[0].Thread != 0 || got[1].Thread != 1 ||
		got[len(got)-1].Thread != trace.DefaultSpanCap-1 {
		t.Fatalf("kept %d events, want the first %d emitted", len(got), trace.DefaultSpanCap)
	}
	if r.DroppedSpans() != 5 {
		t.Fatalf("dropped = %d, want 5", r.DroppedSpans())
	}
}

// TestLifecycleOrderMatchesFigure4 runs a prefetching thread and checks
// the paper's state order: frame-alloc -> stores-done -> program-dma ->
// pf-dispatch -> wait-dma -> ready -> dispatch -> done -> frame-freed.
func TestLifecycleOrderMatchesFigure4(t *testing.T) {
	b := program.NewBuilder("lifecycle")
	root := b.Template("root")
	pf := root.Block(program.PF)
	pf.Load(program.R(1), 0)
	pf.Mfcea(program.R(1))
	pf.Mov(program.R(2), program.RegPFB)
	pf.Mfclsa(program.R(2))
	pf.Movi(program.R(3), 64)
	pf.Mfcsz(program.R(3))
	pf.Mfctag(program.RegTag)
	pf.Mfcget()
	root.PL().Load(program.R(4), 0)
	root.PS().
		StoreMailbox(program.R(4), program.R(5), 0).
		Ffree().
		Stop()
	b.Entry(root, 0x100000)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Templates[0].PrefetchBytes = 64

	cfg := cell.DefaultConfig()
	cfg.SPEs = 1
	cfg.MaxCycles = 1_000_000
	cfg.Record = true
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec == nil {
		t.Fatal("no recorder on result")
	}
	var kinds []trace.Kind
	var cycles []int64
	for _, e := range res.Rec.ThreadEvents() {
		if e.Thread != 1 { // the root thread on SPE 0
			continue
		}
		kinds = append(kinds, e.Kind)
		cycles = append(cycles, int64(e.At))
	}
	want := []trace.Kind{
		trace.FrameAlloc, trace.StoresDone, trace.ProgramDMA,
		trace.PFDispatch, trace.WaitDMA, trace.Ready, trace.Dispatch,
		trace.FrameFreed, trace.Done,
	}
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("lifecycle[%d] = %s, want %s (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Events are causally ordered in time.
	for i := 1; i < len(cycles); i++ {
		if cycles[i] < cycles[i-1] {
			t.Fatalf("event %d at cycle %d precedes event %d at %d",
				i, cycles[i], i-1, cycles[i-1])
		}
	}
	// Wait-for-DMA must actually take time (memory latency is 150).
	dmaWait := cycles[5] - cycles[4] // WaitDMA -> Ready
	if dmaWait < 100 {
		t.Fatalf("DMA wait lasted %d cycles, expected >= 100", dmaWait)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	b := program.NewBuilder("notrace")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	root.PS().StoreMailbox(program.R(1), program.R(2), 0).Ffree().Stop()
	b.Entry(root, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cell.DefaultConfig()
	cfg.SPEs = 1
	cfg.MaxCycles = 100_000
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec != nil {
		t.Fatal("recorder allocated without Record")
	}
}

func TestEventString(t *testing.T) {
	e := trace.Event{At: 42, SPE: 3, Kind: trace.Ready, Thread: 7, Template: 2}
	s := e.String()
	for _, want := range []string{"42", "spe3", "ready", "thread=7", "tmpl=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}
