package program_test

import (
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestSealedProgramsStayUnchanged holds every program sealed while the
// Quick registry runs — the paper experiments' builds and transforms, and
// the generated and transformed programs of the 32 corpus seeds — to
// Seal's contract: nothing changes a program once it is sealed. Each
// program's digest is memoised when it is sealed; after the whole
// registry has run, it must equal a recomputation, the digest of an
// unsealed copy.
func TestSealedProgramsStayUnchanged(t *testing.T) {
	var mu sync.Mutex
	var sealed []*program.Program
	defer program.SetSealHook(func(p *program.Program) {
		p.Digest()
		mu.Lock()
		sealed = append(sealed, p)
		mu.Unlock()
	})()

	ctx := harness.NewContext(harness.Options{SPEs: 8, Latency: 150, Quick: true, Seed: 42})
	for _, e := range harness.All() {
		if res := harness.RunOn(ctx, e); res.Err != nil {
			t.Fatalf("%s: %v", e.ID, res.Err)
		}
	}
	if min := 2 * synth.CorpusSize; len(sealed) < min {
		t.Fatalf("the registry sealed %d programs, fewer than its corpus alone (%d)", len(sealed), min)
	}
	t.Logf("%d programs sealed", len(sealed))
	for _, p := range sealed {
		unsealed := *p
		if unsealed.Digest() != p.Digest() {
			t.Errorf("program %q changed after it was sealed", p.Name)
		}
	}
}
