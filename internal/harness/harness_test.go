package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/lru"
	"repro/internal/synth"
)

// quickCtx runs the suite at reduced problem sizes.
func quickCtx() *Context {
	return NewContext(Options{SPEs: 8, Latency: 150, Quick: true, Seed: 42})
}

func runExp(t *testing.T, ctx *Context, id string) *Outcome {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	out, err := e.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return out
}

func TestAllExperimentsRegisteredInOrder(t *testing.T) {
	all := All()
	if len(all) != len(order)+synth.CorpusSize {
		t.Fatalf("registered %d experiments, want %d paper + %d synth",
			len(all), len(order), synth.CorpusSize)
	}
	for i, e := range all {
		if i < len(order) {
			if e.ID != order[i] {
				t.Fatalf("position %d: %s, want %s", i, e.ID, order[i])
			}
		} else if e.ID != synth.ExperimentID(uint64(i-len(order)+1)) {
			t.Fatalf("position %d: %s, want %s", i, e.ID, synth.ExperimentID(uint64(i-len(order)+1)))
		}
		if e.Title == "" || e.Paper == "" {
			t.Fatalf("%s missing title/paper reference", e.ID)
		}
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	ctx := quickCtx()
	for _, e := range All() {
		out, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		out.Print(&buf)
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
	}
}

func TestFig5aShapes(t *testing.T) {
	ctx := quickCtx()
	out := runExp(t, ctx, "fig5a")
	// The paper's ordering: mmul and zoom are heavily memory bound
	// without prefetching; bitcnt much less so.
	if out.Metrics["mmul_mem_pct"] < 70 {
		t.Fatalf("mmul mem%% = %.1f, want >= 70 (paper 94%%)", out.Metrics["mmul_mem_pct"])
	}
	if out.Metrics["zoom_mem_pct"] < 60 {
		t.Fatalf("zoom mem%% = %.1f, want >= 60 (paper 92%%)", out.Metrics["zoom_mem_pct"])
	}
	if out.Metrics["bitcnt_mem_pct"] >= out.Metrics["mmul_mem_pct"] {
		t.Fatalf("bitcnt (%.1f%%) should be less memory bound than mmul (%.1f%%)",
			out.Metrics["bitcnt_mem_pct"], out.Metrics["mmul_mem_pct"])
	}
}

func TestFig5bShapes(t *testing.T) {
	ctx := quickCtx()
	out := runExp(t, ctx, "fig5b")
	// Prefetching eliminates mmul/zoom memory stalls entirely (paper:
	// "memory stalls are completely eliminated").
	if out.Metrics["mmul_mem_pct"] > 1 {
		t.Fatalf("mmul mem%% with prefetching = %.1f, want ~0", out.Metrics["mmul_mem_pct"])
	}
	if out.Metrics["zoom_mem_pct"] > 1 {
		t.Fatalf("zoom mem%% with prefetching = %.1f, want ~0", out.Metrics["zoom_mem_pct"])
	}
	// bitcnt keeps its undecoupled table lookups.
	if out.Metrics["bitcnt_mem_pct"] < 5 {
		t.Fatalf("bitcnt mem%% = %.1f, want residual stalls", out.Metrics["bitcnt_mem_pct"])
	}
	// Prefetch overhead exists for mmul (paper 28%) and is small for
	// zoom (paper: negligible).
	if out.Metrics["mmul_prefetch_pct"] <= out.Metrics["zoom_prefetch_pct"] {
		t.Fatalf("mmul overhead (%.1f%%) should exceed zoom (%.1f%%)",
			out.Metrics["mmul_prefetch_pct"], out.Metrics["zoom_prefetch_pct"])
	}
}

func TestTable5QuickCounts(t *testing.T) {
	ctx := quickCtx()
	out := runExp(t, ctx, "table5")
	// Quick sizes: mmul(16) -> 2*16^3 reads, 16^2 writes; zoom(16) ->
	// 2*(64*64) reads, 64*64 writes.
	if got := out.Metrics["mmul_read"]; got != 2*16*16*16 {
		t.Fatalf("mmul reads = %v, want %d", got, 2*16*16*16)
	}
	if got := out.Metrics["mmul_write"]; got != 16*16 {
		t.Fatalf("mmul writes = %v, want %d", got, 16*16)
	}
	if got := out.Metrics["zoom_read"]; got != 2*64*64 {
		t.Fatalf("zoom reads = %v, want %d", got, 2*64*64)
	}
	if got := out.Metrics["zoom_write"]; got != 64*64 {
		t.Fatalf("zoom writes = %v, want %d", got, 64*64)
	}
	// bitcnt: 10 reads per value.
	if got := out.Metrics["bitcnt_read"]; got != 10*400 {
		t.Fatalf("bitcnt reads = %v, want %d", got, 10*400)
	}
}

func TestScalabilityShapes(t *testing.T) {
	ctx := quickCtx()
	for _, id := range []string{"fig7", "fig8"} {
		out := runExp(t, ctx, id)
		// Prefetching wins clearly at 150-cycle latency for the
		// memory-bound kernels.
		if out.Metrics["speedup_8spu"] < 2 {
			t.Fatalf("%s speedup = %.2f, want >= 2", id, out.Metrics["speedup_8spu"])
		}
		// The original runs scale near-linearly 1->8 SPUs (paper Fig b).
		if out.Metrics["scalability_orig"] < 4 {
			t.Fatalf("%s original scalability = %.2f, want >= 4", id, out.Metrics["scalability_orig"])
		}
	}
	out := runExp(t, ctx, "fig6")
	if out.Metrics["speedup_8spu"] <= 1 {
		t.Fatalf("bitcnt speedup = %.2f, want > 1", out.Metrics["speedup_8spu"])
	}
}

func TestFig9UsageImproves(t *testing.T) {
	ctx := quickCtx()
	out := runExp(t, ctx, "fig9")
	for _, bench := range []string{"bitcnt", "mmul", "zoom"} {
		if out.Metrics[bench+"_usage_pf"] <= out.Metrics[bench+"_usage_orig"] {
			t.Fatalf("%s: usage did not improve (%.1f -> %.1f)", bench,
				out.Metrics[bench+"_usage_orig"], out.Metrics[bench+"_usage_pf"])
		}
	}
}

func TestLat1Shapes(t *testing.T) {
	ctx := quickCtx()
	out := runExp(t, ctx, "lat1")
	// With a perfect cache there is nothing to hide: speedups collapse
	// toward (or below) 1.
	for _, bench := range []string{"bitcnt", "mmul", "zoom"} {
		if s := out.Metrics[bench+"_speedup"]; s > 1.5 {
			t.Fatalf("%s speedup at latency 1 = %.2f, want <= 1.5", bench, s)
		}
	}
	// Memory waits essentially disappear even without prefetching.
	if out.Metrics["mmul_orig_mem_pct"] > 30 {
		t.Fatalf("mmul original mem%% at latency 1 = %.1f", out.Metrics["mmul_orig_mem_pct"])
	}
}

func TestAblationShapes(t *testing.T) {
	ctx := quickCtx()

	vfp := runExp(t, ctx, "ablation-vfp")
	if vfp.Metrics["blocking16_cycles"] > 0 && vfp.Metrics["vfp16_cycles"] > 0 {
		if vfp.Metrics["vfp16_cycles"] > vfp.Metrics["blocking16_cycles"]*1.05 {
			t.Fatalf("VFP slower under frame pressure: %v vs %v",
				vfp.Metrics["vfp16_cycles"], vfp.Metrics["blocking16_cycles"])
		}
	}

	memlat := runExp(t, ctx, "ablation-memlat")
	if memlat.Metrics["speedup_lat600"] <= memlat.Metrics["speedup_lat25"] {
		t.Fatal("prefetch benefit should grow with memory latency")
	}

	gran := runExp(t, ctx, "ablation-granularity")
	if gran.Metrics["perrow_cmds"] <= gran.Metrics["whole_cmds"] {
		t.Fatal("per-row fetching should issue more DMA commands")
	}

	wb := runExp(t, ctx, "ablation-writeback")
	if wb.Metrics["writeback_writes"] != 0 {
		t.Fatal("write-back left posted WRITEs")
	}
	if wb.Metrics["writeback_messages"] >= wb.Metrics["posted_messages"] {
		t.Fatal("write-back should reduce bus messages")
	}
}

func TestContextCachesRuns(t *testing.T) {
	ctx := quickCtx()
	runExp(t, ctx, "fig5a")
	before := ctx.cache.Len()
	runExp(t, ctx, "fig5a") // same runs: cache hits only
	if ctx.cache.Len() != before {
		t.Fatalf("cache grew on repeat: %d -> %d", before, ctx.cache.Len())
	}
}

func TestDeterministicMetrics(t *testing.T) {
	a := runExp(t, quickCtx(), "fig7")
	b := runExp(t, quickCtx(), "fig7")
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Fatalf("metric %s differs across runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, ok := ByID("nonesuch"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	ids := IDs()
	if len(ids) != len(order)+synth.CorpusSize {
		t.Fatalf("IDs = %v", ids)
	}
	if _, ok := ByID(synth.ExperimentID(1)); !ok {
		t.Fatal("synth corpus experiment not addressable by id")
	}
	// Paper experiments keep presentation order; synth corpus entries
	// follow in registration (seed) order.
	all := All()
	if got := all[len(order)].ID; got != synth.ExperimentID(1) {
		t.Fatalf("first experiment after the paper set = %s, want %s", got, synth.ExperimentID(1))
	}
}

func TestOutcomePrintIncludesNotes(t *testing.T) {
	out := &Outcome{Notes: []string{"hello shape"}}
	var buf bytes.Buffer
	out.Print(&buf)
	if !strings.Contains(buf.String(), "hello shape") {
		t.Fatalf("notes missing: %q", buf.String())
	}
}

// TestRunCacheBounded: a long-lived base context — a dtad worker's —
// fed more distinct latencies than its run cache holds keeps at most
// the cap, its Sub contexts share that one bounded cache, and every
// result, a recomputed evicted one included, matches a fresh context's.
func TestRunCacheBounded(t *testing.T) {
	const limit = 3
	base := NewContextWithPool(Options{Quick: true, SPEs: 2}, cell.NewPool())
	base.cache = lru.New[runSpec, *cell.Result](limit, nil, nil)
	exp, _ := ByID("mmul-orig")
	lats := []int{100, 120, 140, 160, 180, 100} // the last was evicted
	for i, lat := range lats {
		opt := Options{Quick: true, SPEs: 2, Latency: lat}
		sub := base.Sub(opt)
		if sub.cache != base.cache {
			t.Fatal("Sub does not share its base's run cache")
		}
		before := RunsExecuted.Load()
		got := RunOn(sub, exp)
		executed := RunsExecuted.Load() - before
		want := RunOn(NewContext(opt), exp)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("latency %d: %v / %v", lat, got.Err, want.Err)
		}
		if executed != 1 {
			t.Errorf("step %d latency %d: %d simulations, want 1", i, lat, executed)
		}
		if !reflect.DeepEqual(got.Outcome.Metrics, want.Outcome.Metrics) || got.SimCycles != want.SimCycles {
			t.Errorf("latency %d: base context differs from a fresh one", lat)
		}
		if n := base.cache.Len(); n > limit {
			t.Fatalf("run cache holds %d results, cap %d", n, limit)
		}
	}
}
