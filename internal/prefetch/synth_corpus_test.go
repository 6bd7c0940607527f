package prefetch_test

// External test package: synth imports prefetch, so this corpus-level
// regression test for Transform lives on the _test side of the package
// boundary.

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestTransformOverSynthCorpus pins Transform's behaviour over the
// 32-seed synth corpus: every transformed program must be functionally
// identical to its original (tokens and written memory, via the full
// differential check) and must never exceed the documented cycle guard
// band (2.0 x original + 50,000 cycles, fixed in synth's diff.go).
// A transformer change that alters results or wrecks performance on any
// corpus shape fails here before it reaches the paper experiments.
func TestTransformOverSynthCorpus(t *testing.T) {
	for _, seed := range synth.CorpusSeeds() {
		sc := synth.FromSeed(seed)
		// CheckScenario enforces the functional identity and both guard
		// bands internally; any violation surfaces as a DivergenceError.
		if _, err := synth.CheckScenario(sc, synth.CheckOptions{}); err != nil {
			t.Errorf("corpus seed %d: %v", seed, err)
		}
	}
}

// TestTransformDeterministicOverCorpus: Transform is a pure function of
// its input — identical assembly out for identical programs in, across
// every corpus shape (chunked regions, multi-region templates,
// write-path-free templates).
func TestTransformDeterministicOverCorpus(t *testing.T) {
	for _, seed := range synth.CorpusSeeds() {
		prog, err := synth.Generate(synth.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if asm.Format(a) != asm.Format(b) {
			t.Fatalf("seed %d: Transform not deterministic", seed)
		}
	}
}

// TestTransformSharesTheMemoryImage: Transform rewrites code and never
// the initial memory image, so the transformed program's segments are
// the original's (program.Segment.Data is immutable once built, and
// Transform shares it). For every corpus seed the segments must alias, and
// the bytes must still be what Generate made them after Transform and a
// run of each program.
func TestTransformSharesTheMemoryImage(t *testing.T) {
	for _, seed := range synth.CorpusSeeds() {
		sc := synth.FromSeed(seed).Normalize()
		prog, err := synth.Generate(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := make([][]byte, len(prog.Segments))
		for i, seg := range prog.Segments {
			before[i] = bytes.Clone(seg.Data)
		}
		pf, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := cell.DefaultConfig()
		cfg.SPEs = sc.SPEs
		for _, p := range []*program.Program{prog, pf} {
			m, err := cell.New(cfg, p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.CheckErr != nil {
				t.Fatalf("seed %d: functional check: %v", seed, res.CheckErr)
			}
		}
		if len(pf.Segments) != len(prog.Segments) {
			t.Fatalf("seed %d: %d segments became %d", seed, len(prog.Segments), len(pf.Segments))
		}
		for i, seg := range prog.Segments {
			got := pf.Segments[i]
			if got.Addr != seg.Addr || len(got.Data) != len(seg.Data) || &got.Data[0] != &seg.Data[0] {
				t.Errorf("seed %d: segment %d of the transformed program does not alias the original's", seed, i)
			}
			if !bytes.Equal(seg.Data, before[i]) {
				t.Errorf("seed %d: segment %d changed under Transform and the two runs", seed, i)
			}
		}
	}
}

// digestOf recomputes p's digest: a copy of a sealed program is not
// sealed, so it has no memoised digest to return.
func digestOf(p *program.Program) [32]byte {
	q := *p
	return q.Digest()
}

// TestTransformSharesUntouchedTemplates: Transform copies only the
// templates it rewrites — those with tagged accesses — and shares every
// other one with its input, which it leaves as it was. Over the corpus,
// an untouched template is the input's, pointer for pointer; a rewritten
// one is a new template; and the input's digest, recomputed, is what it
// was before Transform.
func TestTransformSharesUntouchedTemplates(t *testing.T) {
	var shared, copied int
	for _, seed := range synth.CorpusSeeds() {
		prog, err := synth.Generate(synth.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := digestOf(prog)
		pf, err := prefetch.Transform(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !pf.Sealed() {
			t.Fatalf("seed %d: Transform returned an unsealed program", seed)
		}
		for i, orig := range prog.Templates {
			switch got := pf.Templates[i]; {
			case len(orig.Accesses) == 0 && got != orig:
				t.Errorf("seed %d: untouched template %q was copied", seed, orig.Name)
			case len(orig.Accesses) == 0:
				shared++
			case got == orig:
				t.Errorf("seed %d: template %q was rewritten in place", seed, orig.Name)
			default:
				copied++
			}
		}
		if digestOf(prog) != before {
			t.Errorf("seed %d: Transform changed its input", seed)
		}
	}
	if shared == 0 || copied == 0 {
		t.Fatalf("the corpus gave %d untouched and %d rewritten templates; the test needs both", shared, copied)
	}
}
