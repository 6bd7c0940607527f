package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// traceDoc mirrors the Chrome trace-event "JSON object format" for
// decoding what WriteTrace produced.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Cat  string         `json:"cat"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func sampleRecorder() *trace.Recorder {
	r := trace.NewRecorder()
	r.SPUUnit(0, trace.UnitPF, 10, 25, 1, 3)
	r.SPUUnit(0, trace.UnitThread, 30, 80, 1, 3)
	r.SPUBurst(1, 0, 200)
	r.DMA(0, 0, 4096, 5, 12, 20, 170) // issued 12, launched 20, done 170
	r.DMA(1, 1, 128, 2, 40, 40, 90)   // launched with no queue delay
	r.NoC(1, 0, 2, 32, 15, 45)
	r.Thread(trace.Event{At: 5, SPE: 0, Kind: trace.FrameAlloc, Thread: 1, Template: 3})
	r.Thread(trace.Event{At: 10, SPE: 0, Kind: trace.PFDispatch, Thread: 1, Template: 3})
	r.Thread(trace.Event{At: 30, SPE: 0, Kind: trace.Dispatch, Thread: 1, Template: 3})
	r.Thread(trace.Event{At: 80, SPE: 0, Kind: trace.Done, Thread: 1, Template: 3})
	return r
}

func TestWriteTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTrace(&buf, []Run{{Label: "unit", SPEs: 2, Rec: sampleRecorder()}})
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Distinct tracks: process metadata for the machine + each SPE, and
	// thread_name rows naming the SPU, DMA, burst and thread tracks.
	wantNames := map[string]bool{
		"SPU": false, "SPU bursts": false, "MFC DMA": false, "threads": false, "NoC": false,
	}
	sawMachine := false
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		name, _ := e.Args["name"].(string)
		if e.Name == "process_name" && name == "machine unit" {
			sawMachine = true
		}
		if e.Name == "thread_name" {
			if _, ok := wantNames[name]; ok {
				wantNames[name] = true
			}
		}
	}
	if !sawMachine {
		t.Fatal("no machine process metadata")
	}
	for n, seen := range wantNames {
		if !seen {
			t.Fatalf("no thread_name metadata for track %q", n)
		}
	}

	// Span payloads: one X event per SPU unit (dur preserved), balanced
	// async begin/end pairs for DMA, NoC and thread states.
	var xSPU, xBurst int
	opens := map[string]int{} // cat/id -> open count
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Cat != "spu" {
				t.Fatalf("X event with cat %q", e.Cat)
			}
			if e.Name == "burst" {
				xBurst++
				if e.Ts != 0 || e.Dur != 200 {
					t.Fatalf("burst span ts=%d dur=%d", e.Ts, e.Dur)
				}
			} else {
				xSPU++
			}
		case "b":
			opens[e.Cat+"/"+e.ID]++
		case "e":
			opens[e.Cat+"/"+e.ID]--
		}
	}
	if xSPU != 2 || xBurst != 1 {
		t.Fatalf("SPU X events = %d, burst = %d; want 2/1", xSPU, xBurst)
	}
	for key, n := range opens {
		if n != 0 {
			t.Fatalf("unbalanced async pairs for %s: %+d", key, n)
		}
	}
}

func TestWriteTraceDMAAndNoCSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Run{{Label: "dma", SPEs: 2, Rec: sampleRecorder()}}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var dmaOuter, dmaXfer, nocPairs int
	for _, e := range doc.TraceEvents {
		if e.Cat == "dma" && e.Ph == "b" {
			if e.Name == "xfer" {
				dmaXfer++
			} else {
				dmaOuter++
			}
		}
		if e.Cat == "noc" && e.Ph == "b" {
			nocPairs++
			if e.Ts != 15 {
				t.Fatalf("noc span ts = %d, want 15", e.Ts)
			}
		}
	}
	// Two DMA commands; only the queue-delayed one (launched > issued)
	// gets an inner transfer phase.
	if dmaOuter != 2 || dmaXfer != 1 {
		t.Fatalf("dma outer = %d, xfer = %d; want 2/1", dmaOuter, dmaXfer)
	}
	if nocPairs != 1 {
		t.Fatalf("noc spans = %d, want 1", nocPairs)
	}
}

func TestWriteTraceMultipleRunsDistinctPids(t *testing.T) {
	var buf bytes.Buffer
	runs := []Run{
		{Label: "sim-orig", SPEs: 2, Rec: sampleRecorder()},
		{Label: "sim-pf", SPEs: 2, Rec: sampleRecorder()},
	}
	if err := WriteTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Pid], _ = e.Args["name"].(string)
		}
	}
	// 2 runs × (1 machine + 2 SPEs) = 6 distinct processes.
	if len(procs) != 6 {
		t.Fatalf("distinct pids = %d (%v), want 6", len(procs), procs)
	}
}

func TestWriteTraceEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Run{{Label: "empty", SPEs: 1, Rec: trace.NewRecorder()}}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty-run output invalid: %v", err)
	}
}

// TestWriteTraceReportsDroppedSpans: a timeline whose recorders dropped
// spans at the per-track cap says so in otherData.dropped_spans, summed
// over the runs; a complete one carries no otherData at all.
func TestWriteTraceReportsDroppedSpans(t *testing.T) {
	full := trace.NewRecorder()
	for i := 0; i < trace.DefaultSpanCap+5; i++ {
		full.NoC(0, 1, 2, 16, 0, 1)
	}
	full.Thread(trace.Event{At: 1, Kind: trace.Dispatch}) // its track is not full
	runs := []Run{
		{Label: "full", SPEs: 1, Rec: full},
		{Label: "sample", SPEs: 2, Rec: sampleRecorder()},
	}
	if n := DroppedSpans(runs); n != 5 {
		t.Fatalf("DroppedSpans = %d, want 5", n)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			DroppedSpans int64 `json:"dropped_spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("truncated timeline is not valid JSON: %v", err)
	}
	if doc.OtherData.DroppedSpans != 5 {
		t.Fatalf("otherData.dropped_spans = %d, want 5", doc.OtherData.DroppedSpans)
	}

	buf.Reset()
	if err := WriteTrace(&buf, runs[1:]); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("otherData")) {
		t.Fatal("a complete timeline carries otherData")
	}
}
