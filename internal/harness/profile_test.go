package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestProfiledRunConsistentWithMetrics: profiling mmul-pf through the
// harness yields one labelled observed run whose per-cause totals agree
// exactly with the experiment's own cause_<slug>_cycles metrics.
func TestProfiledRunConsistentWithMetrics(t *testing.T) {
	exp, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf experiment not registered")
	}
	ctx := NewContext(quickOpt())
	ctx.Observe(false, true)
	res := RunOn(ctx, exp)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	profiled := ctx.Observed()
	if len(profiled) != 1 {
		t.Fatalf("profiled %d runs, want 1", len(profiled))
	}
	pr := profiled[0]
	if pr.SPEs != 2 {
		t.Fatalf("profiled SPEs = %d, want 2", pr.SPEs)
	}
	if !strings.Contains(pr.Label, "mmul") {
		t.Fatalf("label = %q, want the benchmark name in it", pr.Label)
	}
	if pr.Prog == nil {
		t.Fatal("the observed run carries no program (profiles would be unsymbolisable)")
	}
	if pr.Rec != nil {
		t.Fatal("a profile-only run carries a timeline")
	}
	causes := pr.Prof.Causes()
	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		if got, want := float64(causes[c]), res.Outcome.Metrics["cause_"+c.Slug()+"_cycles"]; got != want {
			t.Fatalf("profile %s cycles = %v, metrics report %v", c.Slug(), got, want)
		}
	}
	if res.Outcome.Metrics["stall_pct"] != causes.Buckets().StallPct() {
		t.Fatalf("stall_pct metric %v != profile-derived %v",
			res.Outcome.Metrics["stall_pct"], causes.Buckets().StallPct())
	}
}

// TestProfilingDoesNotChangeOutcome is the harness-level regression
// guard: a sweep that keeps its runs' profiles (each on a machine of its
// own) reports exactly the same tables and metrics as a plain one, and
// a cache hit adds no second profile.
func TestProfilingDoesNotChangeOutcome(t *testing.T) {
	exp, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf experiment not registered")
	}
	plain := RunOn(NewContext(quickOpt()), exp)
	profCtx := NewContext(quickOpt())
	profCtx.Observe(false, true)
	prof := RunOn(profCtx, exp)
	if plain.Err != nil || prof.Err != nil {
		t.Fatalf("errors: plain=%v profiled=%v", plain.Err, prof.Err)
	}
	if !reflect.DeepEqual(plain.Outcome.Metrics, prof.Outcome.Metrics) {
		t.Fatalf("metrics differ:\nplain    %+v\nprofiled %+v", plain.Outcome.Metrics, prof.Outcome.Metrics)
	}
	if !reflect.DeepEqual(plain.Outcome.Tables, prof.Outcome.Tables) {
		t.Fatalf("tables differ:\nplain    %+v\nprofiled %+v", plain.Outcome.Tables, prof.Outcome.Tables)
	}
	if plain.SimCycles != prof.SimCycles {
		t.Fatalf("sim cycles differ: %d vs %d", plain.SimCycles, prof.SimCycles)
	}
	// A cache-served rerun reuses the already-profiled simulation.
	if rerun := RunOn(profCtx, exp); rerun.Err != nil {
		t.Fatalf("rerun: %v", rerun.Err)
	}
	if n := len(profCtx.Observed()); n != 1 {
		t.Fatalf("cache hit added a profile: %d runs profiled", n)
	}
}

// TestCauseCyclesAccounting: the process-wide per-cause counters follow
// the SimCycles accounting rule — hit or miss, every request bills the
// result's totals.
func TestCauseCyclesAccounting(t *testing.T) {
	exp, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf experiment not registered")
	}
	before := CauseCycles[stats.CauseIssue].Load()
	ctx := NewContext(quickOpt())
	if res := RunOn(ctx, exp); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	afterMiss := CauseCycles[stats.CauseIssue].Load()
	if afterMiss <= before {
		t.Fatalf("issue-cause cycles did not grow on a computed run (%d -> %d)", before, afterMiss)
	}
	if res := RunOn(ctx, exp); res.Err != nil { // cache hit
		t.Fatalf("rerun: %v", res.Err)
	}
	if after := CauseCycles[stats.CauseIssue].Load(); after-afterMiss != afterMiss-before {
		t.Fatalf("cache hit billed %d issue cycles, computed run billed %d",
			after-afterMiss, afterMiss-before)
	}
}
