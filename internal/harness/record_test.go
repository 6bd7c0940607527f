package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func quickOpt() Options {
	return Options{SPEs: 2, Latency: 60, Quick: true, Seed: 42}
}

// TestRecordedRunConsistentWithBreakdown drives the acceptance check:
// recording mmul-pf yields per-component tracks whose span counts agree
// with the experiment's own reported metrics.
func TestRecordedRunConsistentWithBreakdown(t *testing.T) {
	exp, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf experiment not registered")
	}
	ctx := NewContext(quickOpt())
	ctx.Observe(true, false)
	res := RunOn(ctx, exp)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	recorded := ctx.Observed()
	if len(recorded) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(recorded))
	}
	rr := recorded[0]
	if rr.SPEs != 2 {
		t.Fatalf("recorded SPEs = %d, want 2", rr.SPEs)
	}
	if !strings.Contains(rr.Label, "mmul") {
		t.Fatalf("label = %q, want the benchmark name in it", rr.Label)
	}

	var threadSpans, pfSpans, burstSpans float64
	for _, s := range rr.Rec.SPUSpans() {
		switch s.Unit {
		case trace.UnitThread:
			threadSpans++
		case trace.UnitPF:
			pfSpans++
		case trace.UnitBurst:
			burstSpans++
		}
	}
	m := res.Outcome.Metrics
	if got, want := threadSpans, m["threads"]; got != want {
		t.Fatalf("thread spans = %v, metrics report %v threads", got, want)
	}
	if pfSpans == 0 {
		t.Fatal("prefetch experiment recorded no PF spans")
	}
	if len(rr.Rec.DMASpans()) == 0 {
		t.Fatal("no DMA spans recorded")
	}
	// Spans are recorded at bus grant; the metric counts deliveries, so
	// a small in-flight tail may remain when the run stops.
	if got, want := float64(len(rr.Rec.NoCSpans())), m["noc_messages"]; got < want {
		t.Fatalf("NoC spans = %v < %v delivered messages", got, want)
	}
	if len(rr.Rec.ThreadEvents()) == 0 {
		t.Fatal("no thread-lifecycle events recorded")
	}
}

// TestRecordingDoesNotChangeOutcome is the regression guard at the
// harness level: a recorded sweep reports exactly the same tables and
// metrics as a plain one.
func TestRecordingDoesNotChangeOutcome(t *testing.T) {
	exp, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf experiment not registered")
	}
	plain := RunOn(NewContext(quickOpt()), exp)
	recCtx := NewContext(quickOpt())
	recCtx.Observe(true, false)
	rec := RunOn(recCtx, exp)
	if plain.Err != nil || rec.Err != nil {
		t.Fatalf("errors: plain=%v recorded=%v", plain.Err, rec.Err)
	}
	if !reflect.DeepEqual(plain.Outcome.Metrics, rec.Outcome.Metrics) {
		t.Fatalf("metrics differ:\nplain    %+v\nrecorded %+v", plain.Outcome.Metrics, rec.Outcome.Metrics)
	}
	if !reflect.DeepEqual(plain.Outcome.Tables, rec.Outcome.Tables) {
		t.Fatalf("tables differ:\nplain    %+v\nrecorded %+v", plain.Outcome.Tables, rec.Outcome.Tables)
	}
	if plain.SimCycles != rec.SimCycles {
		t.Fatalf("sim cycles differ: %d vs %d", plain.SimCycles, rec.SimCycles)
	}
}
