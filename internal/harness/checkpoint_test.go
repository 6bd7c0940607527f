package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/sim"
)

// resultView is the comparable projection of a cell.Result: everything
// except the Rec attachment, a pointer into a machine-owned buffer.
type resultView struct {
	Cycles interface{}
	Tokens interface{}
	Agg    interface{}
	SPUs   interface{}
	LSEs   interface{}
	MFCs   interface{}
	DSEs   interface{}
	Mem    interface{}
	Net    interface{}
}

func view(r *cell.Result) resultView {
	return resultView{r.Cycles, r.Tokens, r.Agg, r.SPUs, r.LSEs, r.MFCs, r.DSEs, r.Mem, r.Net}
}

// TestCheckpointForkMatchesCold is the harness-level fork contract:
// a phase run served through the checkpoint cache must be identical —
// cycles and every statistic — to the same phase run simulated cold
// from cycle 0 (no checkpoint cache). Every benchmark, two knob kinds.
func TestCheckpointForkMatchesCold(t *testing.T) {
	warm := NewContext(Options{Quick: true})
	cold := NewContext(Options{Quick: true})
	cold.SetCheckpointCache(nil)
	for _, bench := range benchmarks {
		base, err := warm.runOne(warm.spec(bench, warm.Opt.SPEs, true))
		if err != nil {
			t.Fatalf("%s base: %v", bench, err)
		}
		div := base.Cycles / 2
		for _, knobs := range []cell.Knobs{
			{MemLatency: warm.Opt.Latency * 2},
			{MFCCmdLatency: 40},
			{MemLatency: warm.Opt.Latency * 3, MFCCmdLatency: 25},
		} {
			name := fmt.Sprintf("%s knobs=%+v", bench, knobs)
			hits := CheckpointHits.Load()
			got, err := warm.runOne(warm.phaseSpec(bench, warm.Opt.SPEs, knobs, div))
			if err != nil {
				t.Fatalf("%s warm: %v", name, err)
			}
			want, err := cold.runOne(cold.phaseSpec(bench, cold.Opt.SPEs, knobs, div))
			if err != nil {
				t.Fatalf("%s cold: %v", name, err)
			}
			if !reflect.DeepEqual(view(got), view(want)) {
				t.Errorf("%s: forked result differs from cold result (cycles %d vs %d)",
					name, got.Cycles, want.Cycles)
			}
			if knobs.MemLatency == warm.Opt.Latency*2 && knobs.MFCCmdLatency == 0 {
				// First phase run of this benchmark: the prefix is captured.
				continue
			}
			if CheckpointHits.Load() == hits {
				t.Errorf("%s: expected a checkpoint hit for the shared prefix", name)
			}
		}
	}
	if warm.ckpts.Len() == 0 {
		t.Error("warm context cached no checkpoints")
	}
}

// TestCheckpointForkEarlyCompletion: a divergence cycle past the end
// of the run must finish un-knobbed and equal the plain baseline —
// the same semantics as a cold run whose phase change never arrives.
func TestCheckpointForkEarlyCompletion(t *testing.T) {
	ctx := NewContext(Options{Quick: true})
	base, err := ctx.runOne(ctx.spec("bitcnt", ctx.Opt.SPEs, true))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.runOne(ctx.phaseSpec("bitcnt", ctx.Opt.SPEs,
		cell.Knobs{MemLatency: ctx.Opt.Latency * 4}, base.Cycles*2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view(got), view(base)) {
		t.Errorf("post-completion divergence changed the result: %d vs %d cycles",
			got.Cycles, base.Cycles)
	}
}

// TestCheckpointCacheLRU: the process counters follow the cache's LRU
// bookkeeping (its order is internal/lru's, tested there) — an eviction
// counts once and leaves the bytes gauge, a replacement moves the gauge
// by the size difference, and a Drop is not an eviction.
func TestCheckpointCacheLRU(t *testing.T) {
	cc := newCheckpointCache(100)
	ev, gauge := CheckpointEvictions.Load(), CheckpointBytes.Load()
	check := func(what string, evictions, bytes int64) {
		t.Helper()
		if got := CheckpointEvictions.Load() - ev; got != evictions {
			t.Errorf("%s: %d evictions counted, want %d", what, got, evictions)
		}
		if got := CheckpointBytes.Load() - gauge; got != bytes || cc.Bytes() != bytes {
			t.Errorf("%s: gauge moved %d, cache holds %d bytes, want %d", what, got, cc.Bytes(), bytes)
		}
	}
	cc.Put("a", make([]byte, 40))
	cc.Put("b", make([]byte, 40))
	cc.Put("c", make([]byte, 40)) // 120 > 100: evicts a
	check("third put", 1, 80)
	if _, ok := cc.Get("a"); ok {
		t.Error("a survived eviction")
	}
	cc.Put("b", make([]byte, 10))
	check("replacement", 1, 50)
	cc.Put("huge", make([]byte, 500)) // kept alone
	check("oversized put", 3, 500)
	cc.Drop("huge")
	check("drop", 3, 0)
	if cc.Len() != 0 {
		t.Errorf("Drop left %d entries", cc.Len())
	}
}

// TestCheckpointPoisonBlobDropped: a cached blob that fails to restore
// is dropped and the run simulates its prefix cold, with the result of
// a run that never had a cache. Mid-run, the recaptured snapshot takes
// the poison's place; past the end of the run nothing is captured, so
// the key is gone.
func TestCheckpointPoisonBlobDropped(t *testing.T) {
	ctx := NewContext(Options{Quick: true})
	cold := NewContext(Options{Quick: true})
	cold.SetCheckpointCache(nil)
	spes := ctx.Opt.SPEs
	spec := ctx.spec("mmul", spes, true)
	prog, err := ctx.buildProgram(spec.build)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ctx.runOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, div := range []sim.Cycle{base.Cycles / 2, base.Cycles * 2} {
		key := cell.SnapshotKey(spec.cfg, prog, div)
		ctx.ckpts.Put(key, []byte("poison"))
		knobs := cell.Knobs{MemLatency: ctx.Opt.Latency * 2}
		got, err := ctx.runOne(ctx.phaseSpec("mmul", spes, knobs, div))
		if err != nil {
			t.Fatalf("div %d: %v", div, err)
		}
		want, err := cold.runOne(cold.phaseSpec("mmul", spes, knobs, div))
		if err != nil {
			t.Fatalf("div %d cold: %v", div, err)
		}
		if !reflect.DeepEqual(view(got), view(want)) {
			t.Errorf("div %d: run after a poison blob differs from cold (cycles %d vs %d)",
				div, got.Cycles, want.Cycles)
		}
		blob, ok := ctx.ckpts.blobs.Peek(key)
		if midRun := div < base.Cycles; ok != midRun || string(blob) == "poison" {
			t.Errorf("div %d: key present %v after the run, want %v and no poison", div, ok, midRun)
		}
	}
}
