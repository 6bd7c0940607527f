package synth

import (
	"testing"

	"repro/internal/cell"
)

// TestCheckpointDiffCorpus runs the pinned 32-seed corpus with the
// checkpoint differential enabled: every simulation is re-executed
// with a snapshot/restore seam at its halfway boundary and must match
// the uninterrupted run byte for byte.
func TestCheckpointDiffCorpus(t *testing.T) {
	opt := CheckOptions{DiffCheckpoint: true, Pool: cell.NewPool()}
	for _, seed := range CorpusSeeds() {
		if _, err := CheckSeed(seed, opt); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
