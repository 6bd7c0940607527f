package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/workloads"
)

// TestSubAtAnotherSeedMatchesFresh: a run key holds the whole program
// build, input seed and problem size included, so a Sub at another Seed
// or at paper size simulates programs of its own instead of being served
// its parent's, and reports what a fresh context at its options does.
func TestSubAtAnotherSeedMatchesFresh(t *testing.T) {
	exp, _ := ByID("bitcnt-orig")
	base := NewContext(quickOpts())
	if r := RunOn(base, exp); r.Err != nil {
		t.Fatal(r.Err)
	}
	seed7, paper := quickOpts(), quickOpts()
	seed7.Seed, paper.Quick = 7, false
	for _, opt := range []Options{seed7, paper} {
		got, want := RunOn(base.Sub(opt), exp), RunOn(NewContext(opt), exp)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%+v: Sub err %v, fresh err %v", opt, got.Err, want.Err)
		}
		if !reflect.DeepEqual(got.Outcome.Metrics, want.Outcome.Metrics) {
			t.Errorf("%+v: the Sub ran %v cycles, a fresh context %v", opt,
				got.Outcome.Metrics["cycles"], want.Outcome.Metrics["cycles"])
		}
	}
}

// a1Rows are ablation-vfp's rows: metric key and LSE knobs.
var a1Rows = []struct {
	key    string
	vfp    bool
	frames int
}{
	{"blocking64", false, 64},
	{"vfp64", true, 64},
	{"blocking16", false, 16},
	{"vfp16", true, 16},
}

// TestAblationVFPRunsOnTheSweepMachine: A1's rows are bitcnt with 8
// spawner chains on the machine every experiment at the context's
// options runs on (MachineConfig), with only the LSE's frame knobs
// changed — at latency 1 too, where that machine carries the §4.3
// ideal-cache wiring.
func TestAblationVFPRunsOnTheSweepMachine(t *testing.T) {
	opt := quickOpts()
	opt.Latency = 1
	exp, _ := ByID("ablation-vfp")
	got := RunOn(NewContext(opt), exp)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	w, _ := workloads.Get("bitcnt")
	prog, err := w.Build(workloads.Params{N: 400, Chains: 8, Seed: opt.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = prefetch.Transform(prog); err != nil {
		t.Fatal(err)
	}
	for _, row := range a1Rows {
		cfg := MachineConfig(opt)
		cfg.LSE.VirtualFP, cfg.LSE.NumFrames = row.vfp, row.frames
		m, err := cell.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if cycles := got.Outcome.Metrics[row.key+"_cycles"]; cycles != float64(want.Cycles) {
			t.Errorf("%s: A1 reports %v cycles, the sweep's machine runs %d", row.key, cycles, want.Cycles)
		}
	}
}

// TestEqualRunsAreOneSimulation: A2 at Table 4's 30-cycle command
// latency, A3 at 4 buses, A5 at one node and A7's posted-WRITE row are
// all the mmul-pf simulation, so after mmul-pf the four ablations bill
// exactly those four rows as run-cache hits and simulate the rest.
func TestEqualRunsAreOneSimulation(t *testing.T) {
	ctx := NewContext(quickOpts())
	run := func(id string) {
		exp, _ := ByID(id)
		if r := RunOn(ctx, exp); r.Err != nil {
			t.Fatalf("%s: %v", id, r.Err)
		}
	}
	run("mmul-pf")
	executed, hits := RunsExecuted.Load(), RunCacheHits.Load()
	for _, id := range []string{"ablation-dmalat", "ablation-buses", "ablation-nodes", "ablation-writeback"} {
		run(id)
	}
	if e, h := RunsExecuted.Load()-executed, RunCacheHits.Load()-hits; e != 9 || h != 4 {
		t.Fatalf("the four ablations simulated %d runs and hit %d, want 9 and 4", e, h)
	}
}

// TestAblationVFPObserved: the ablations' runs are observed like every
// other run, one labelled recording per simulation, on a fresh context
// each: A1's four rows, and A4's original and prefetched run at each of
// its six latencies.
func TestAblationVFPObserved(t *testing.T) {
	var memlat []string
	for _, lat := range []int{1, 25, 75, 150, 300, 600} {
		for _, pf := range []bool{false, true} {
			memlat = append(memlat, fmt.Sprintf("mmul spes=8 pf=%v lat=%d", pf, lat))
		}
	}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"ablation-vfp", []string{
			"bitcnt spes=8 pf=true lat=150 chains=8",
			"bitcnt spes=8 pf=true lat=150 chains=8 vfp",
			"bitcnt spes=8 pf=true lat=150 chains=8 frames=16",
			"bitcnt spes=8 pf=true lat=150 chains=8 vfp frames=16",
		}},
		{"ablation-memlat", memlat},
	} {
		ctx := NewContext(quickOpts())
		ctx.Observe(true, false)
		exp, _ := ByID(tc.id)
		if r := RunOn(ctx, exp); r.Err != nil {
			t.Fatal(r.Err)
		}
		var labels []string
		for _, r := range ctx.Observed() {
			labels = append(labels, r.Label)
			if r.Rec == nil || len(r.Rec.SPUSpans()) == 0 {
				t.Errorf("%s %s: empty recording", tc.id, r.Label)
			}
		}
		if !reflect.DeepEqual(labels, tc.want) {
			t.Fatalf("%s observed %q, want %q", tc.id, labels, tc.want)
		}
	}
}
