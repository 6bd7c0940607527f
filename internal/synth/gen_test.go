package synth

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/prefetch"
)

// TestGenerateDeterministic: the same seed must produce byte-identical
// programs (assembly text, inputs, entry) on every call — the property
// run keys, corpora and reproducers all stand on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, err := Generate(FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if asm.Format(a) != asm.Format(b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenerateValid: every seed in a wide range builds a program that
// validates and transforms cleanly.
func TestGenerateValid(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		sc := FromSeed(seed)
		prog, err := Generate(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): generate: %v", seed, sc.Summary(), err)
		}
		if !prog.Sealed() {
			t.Fatalf("seed %d (%s): generated program is not sealed", seed, sc.Summary())
		}
		if _, err := prefetch.Transform(prog); err != nil {
			t.Fatalf("seed %d (%s): transform: %v", seed, sc.Summary(), err)
		}
	}
}

// TestKindCoverage: the corpus-sized seed range exercises every pattern
// kind — otherwise the fuzzer silently stops covering program space.
func TestKindCoverage(t *testing.T) {
	seen := map[Kind]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		for _, p := range FromSeed(seed).Patterns {
			seen[p.Kind] = true
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Errorf("kind %s never generated in seeds 1..64", k)
		}
	}
}

// TestNormalizeArbitrary: Normalize must make any pattern — including
// garbage a shrinker or caller could produce — generate a valid
// program, and must be idempotent.
func TestNormalizeArbitrary(t *testing.T) {
	cases := []Pattern{
		{Kind: KStrided, N: -3, Workers: 1000, Stride: 99, Chunk: 7},
		{Kind: KStrided64, N: 0, Workers: 0, Stride: 0},
		{Kind: KGather, N: 1 << 20, Workers: 3},
		{Kind: KChase, N: -1, Workers: 8},
		{Kind: KReduce, N: 100, Depth: 9},
		{Kind: KPipeline, N: 1},
		{Kind: KStencil, N: 100},
		{Kind: Kind(250), N: 5},
	}
	for i, p := range cases {
		q := p.Normalize()
		if q != q.Normalize() {
			t.Errorf("case %d: Normalize not idempotent: %+v vs %+v", i, q, q.Normalize())
		}
		sc := Scenario{Seed: 7, SPEs: 16, Patterns: []Pattern{p}}
		prog, err := Generate(sc)
		if err != nil {
			t.Errorf("case %d (%+v): %v", i, p, err)
			continue
		}
		if !prog.Sealed() {
			t.Errorf("case %d (%+v): generated program is not sealed", i, p)
		}
	}
}

// TestScenarioForSalt: the default salt reproduces FromSeed; other
// salts draw different scenarios deterministically.
func TestScenarioForSalt(t *testing.T) {
	if !ScenarioFor(5, DefaultSalt).equal(FromSeed(5)) {
		t.Fatal("default salt does not reproduce FromSeed")
	}
	a, b := ScenarioFor(5, 7), ScenarioFor(5, 7)
	if !a.equal(b) {
		t.Fatal("salted derivation not deterministic")
	}
}
