package synth

import (
	"reflect"
	"testing"

	"repro/internal/cell"
)

// TestCorpusProfilerNonPerturbing is the profiler's corpus-wide
// regression guard: every pinned seed's original AND prefetch-
// transformed simulation runs with the guest cycle profiler on and off,
// and every reported number — cycles, tokens, full stats — must be
// byte-identical. The profiled runs also pass the full differential
// check (oracle, memory image, invariants), so a profiler that
// perturbed anything at all would fail twice over.
func TestCorpusProfilerNonPerturbing(t *testing.T) {
	plain := CheckOptions{Pool: cell.NewPool()}
	prof := CheckOptions{Profile: true, Pool: cell.NewPool()}
	for _, seed := range CorpusSeeds() {
		base, err := CheckSeed(seed, plain)
		if err != nil {
			t.Fatalf("seed %d (profiler off): %v", seed, err)
		}
		got, err := CheckSeed(seed, prof)
		if err != nil {
			t.Errorf("seed %d (profiler on): %v", seed, err)
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("seed %d: profiled report differs:\noff %+v\non  %+v", seed, base, got)
		}
	}
}

// TestCorpusBurstProfileDifferential runs the burst/single-step
// differential with profiling enabled: beyond the usual byte-identical
// stats, diffResults now also requires the two paths' guest profiles to
// match sample for sample — bulk burst attribution (one Add per burst)
// must equal per-cycle attribution exactly.
func TestCorpusBurstProfileDifferential(t *testing.T) {
	opt := CheckOptions{DiffBurst: true, Profile: true, Pool: cell.NewPool()}
	for _, seed := range CorpusSeeds() {
		if _, err := CheckSeed(seed, opt); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestObserveScenario checks the fresh-machine observing entry point:
// with both switches set, each variant carries a timeline and a guest
// profile, each profile equals the one a profile-only call returns (so
// recording alongside does not perturb it), and each profile's cause
// totals agree with its bucket fold.
func TestObserveScenario(t *testing.T) {
	sc := FromSeed(CorpusSeeds()[0])
	both, err := ObserveScenario(sc, CheckOptions{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	profOnly, err := ObserveScenario(sc, CheckOptions{}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 || len(profOnly) != 2 {
		t.Fatalf("observed %d and %d runs, want the orig/pf pair", len(both), len(profOnly))
	}
	for i, r := range both {
		if r.Rec == nil || len(r.Rec.SPUSpans()) == 0 || r.Prof == nil || r.Prog == nil {
			t.Fatalf("%s: want a timeline, a profile and a program (rec=%v prof=%v prog=%v)",
				r.Label, r.Rec != nil, r.Prof != nil, r.Prog != nil)
		}
		if profOnly[i].Rec != nil {
			t.Fatalf("%s: a profile-only run carries a timeline", profOnly[i].Label)
		}
		if !r.Prof.Equal(profOnly[i].Prof) {
			t.Errorf("%s: profile differs with the timeline recorded alongside", r.Label)
		}
		if r.Prof.Len() == 0 {
			t.Errorf("%s: no samples", r.Label)
		}
		if causes := r.Prof.Causes(); causes.Total() != r.Prof.Total() {
			t.Errorf("%s: cause total %d != profile total %d", r.Label, causes.Total(), r.Prof.Total())
		}
	}
	if both[0].Prof.Equal(both[1].Prof) {
		t.Error("orig and pf profiles identical — transform had no effect on attribution")
	}
}
