package cell_test

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// pfProgram builds the prefetch-transformed mmul benchmark at a small
// size: it exercises PF blocks, MFC DMA traffic and NoC messages, so
// every recorder track sees real work.
func pfProgram(t *testing.T) *program.Program {
	t.Helper()
	w, ok := workloads.Get("mmul")
	if !ok {
		t.Fatal("mmul workload not registered")
	}
	mmul, err := w.Build(workloads.Params{N: 8, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatalf("build mmul: %v", err)
	}
	p, err := prefetch.Transform(mmul)
	if err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	return p
}

func recordConfig(spes int, record bool) cell.Config {
	cfg := cell.DefaultConfig()
	cfg.SPEs = spes
	cfg.MaxCycles = 10_000_000
	cfg.Record = record
	return cfg
}

func runProgram(t *testing.T, cfg cell.Config, p *program.Program) *cell.Result {
	t.Helper()
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CheckErr != nil {
		t.Fatalf("functional check: %v", res.CheckErr)
	}
	return res
}

// TestRecordingDoesNotPerturbResults is the observability regression
// guard at the machine level: the same program run with Record on and
// off must produce identical simulation results — spans are emitted at
// completion sites outside the cycle kernel, never on the clocked path.
func TestRecordingDoesNotPerturbResults(t *testing.T) {
	base := runProgram(t, recordConfig(2, false), pfProgram(t))
	rec := runProgram(t, recordConfig(2, true), pfProgram(t))

	if base.Cycles != rec.Cycles {
		t.Fatalf("cycles differ: plain %d, recorded %d", base.Cycles, rec.Cycles)
	}
	if !reflect.DeepEqual(base.Tokens, rec.Tokens) {
		t.Fatalf("tokens differ: %v vs %v", base.Tokens, rec.Tokens)
	}
	if !reflect.DeepEqual(base.Agg, rec.Agg) {
		t.Fatalf("aggregate stats differ:\nplain    %+v\nrecorded %+v", base.Agg, rec.Agg)
	}
	if !reflect.DeepEqual(base.Net, rec.Net) {
		t.Fatalf("NoC stats differ: %+v vs %+v", base.Net, rec.Net)
	}
	if !reflect.DeepEqual(base.MFCs, rec.MFCs) {
		t.Fatalf("MFC stats differ: %+v vs %+v", base.MFCs, rec.MFCs)
	}
	if base.Rec != nil {
		t.Fatal("recorder present without Config.Record")
	}
	if rec.Rec == nil {
		t.Fatal("no recorder on recorded result")
	}
}

// TestRecordedSpansMatchStats cross-checks every span track against the
// machine's own counters: the recorder must account for exactly the
// work the stats report.
func TestRecordedSpansMatchStats(t *testing.T) {
	res := runProgram(t, recordConfig(2, true), pfProgram(t))
	rec := res.Rec

	var threads, pfs int64
	for _, s := range rec.SPUSpans() {
		switch s.Unit {
		case trace.UnitThread:
			threads++
		case trace.UnitPF:
			pfs++
		}
		if s.End <= s.Start {
			t.Fatalf("empty span %+v", s)
		}
	}
	if threads != res.Agg.Threads {
		t.Fatalf("thread spans = %d, stats report %d threads", threads, res.Agg.Threads)
	}
	if pfs != res.Agg.PFBlocks {
		t.Fatalf("PF spans = %d, stats report %d PF blocks", pfs, res.Agg.PFBlocks)
	}
	if pfs == 0 {
		t.Fatal("prefetch-transformed program recorded no PF spans")
	}

	var dmas int64
	for _, m := range res.MFCs {
		dmas += m.Gets + m.Puts
	}
	if got := int64(len(rec.DMASpans())); got != dmas {
		t.Fatalf("DMA spans = %d, MFC stats report %d commands", got, dmas)
	}
	for _, d := range rec.DMASpans() {
		if d.Launched < d.Issued || d.Done < d.Launched {
			t.Fatalf("DMA lifetime out of order: %+v", d)
		}
	}

	// Spans are recorded at send with the delivery cycle the network
	// fixed there; stats count actual deliveries. The run stops the
	// moment the result mailbox fills, so a handful of trailing messages
	// (final acks) can be sent but still in flight — spans may exceed
	// deliveries by that small tail, never the reverse.
	got := int64(len(rec.NoCSpans()))
	if got < res.Net.Messages {
		t.Fatalf("NoC spans = %d < %d delivered messages (missed spans)", got, res.Net.Messages)
	}
	if got > res.Net.Messages+int64(4*len(res.SPUs)) {
		t.Fatalf("NoC spans = %d, delivered %d: in-flight tail implausibly large", got, res.Net.Messages)
	}
	for _, n := range rec.NoCSpans() {
		if n.Delivered <= n.Sent {
			t.Fatalf("NoC span with no transit time: %+v", n)
		}
	}

	if len(rec.Threads.Events()) == 0 {
		t.Fatal("no thread-lifecycle events recorded")
	}
}

// TestRecordSurvivesReset: machine reuse keeps the same recorder (the
// component wiring set in New stays valid) but truncates its tracks.
func TestRecordSurvivesReset(t *testing.T) {
	cfg := recordConfig(2, true)
	m, err := cell.New(cfg, pfProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Rec == nil || len(res1.Rec.SPUSpans()) == 0 {
		t.Fatal("first run recorded nothing")
	}
	spans1 := len(res1.Rec.SPUSpans())
	if err := m.Reset(pfProgram(t)); err != nil {
		t.Fatal(err)
	}
	res2, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rec != res1.Rec {
		t.Fatal("Reset replaced the recorder (component wiring would be stale)")
	}
	if got := len(res2.Rec.SPUSpans()); got != spans1 {
		t.Fatalf("second run has %d SPU spans, first had %d (tracks must reset to identical runs)", got, spans1)
	}
}
