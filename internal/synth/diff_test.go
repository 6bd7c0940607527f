package synth

import (
	"testing"
	"time"
)

// corpusSeeds is the differential test corpus: every seed is run three
// ways (oracle, simulated original, simulated prefetch-transformed) and
// must agree byte for byte. 64 seeds is the acceptance floor; the whole
// corpus completes in well under a minute.
const corpusSeeds = 64

// TestDifferentialCorpus64 is the subsystem's core guarantee: a 64-seed
// corpus of generated scenarios where oracle, original simulation and
// prefetch-transformed simulation produce identical tokens and memory,
// the self-checks pass, no scenario deadlocks, and the transformation's
// performance invariants hold.
func TestDifferentialCorpus64(t *testing.T) {
	start := time.Now()
	var decoupledSome, chaseOnly int
	for seed := uint64(1); seed <= corpusSeeds; seed++ {
		r, err := CheckSeed(seed, CheckOptions{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if r.Decoupled > 0 {
			decoupledSome++
		} else {
			chaseOnly++
		}
		if r.OrigCycles == 0 || r.PFCycles == 0 {
			t.Errorf("seed %d: zero cycle count (%+v)", seed, r)
		}
	}
	if decoupledSome == 0 {
		t.Error("no corpus scenario exercised the prefetch transformer")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("corpus took %s, must stay under 60s", elapsed)
	}
}

// TestDifferentialDeterministic: the full differential check (both
// simulations included) reports identical cycle counts on repeat runs.
func TestDifferentialDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 11, 28} {
		a, err := CheckSeed(seed, CheckOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := CheckSeed(seed, CheckOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.OrigCycles != b.OrigCycles || a.PFCycles != b.PFCycles ||
			a.OracleSteps != b.OracleSteps {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, a, b)
		}
	}
}

// TestCheckScenarioLatency: the checker honours a non-default memory
// latency (the CI sweep's `dta fuzz -latency 60`).
func TestCheckScenarioLatency(t *testing.T) {
	slow, err := CheckSeed(9, CheckOptions{Latency: 300})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := CheckSeed(9, CheckOptions{Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	if slow.OrigCycles <= fast.OrigCycles {
		t.Fatalf("latency knob inert: 300cy=%d vs 50cy=%d", slow.OrigCycles, fast.OrigCycles)
	}
}
