package synth

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/sim"
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

// TestReplayTo: the time-travel handle must pause strictly before the
// requested cycle, finish to the same outcome as a cold run, and
// Rewind must make the window repeatable.
func TestReplayTo(t *testing.T) {
	sc := FromSeed(3)
	opt := CheckOptions{}.withDefaults()

	prog, err := Generate(sc.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cell.DefaultConfig()
	cfg.SPEs = sc.Normalize().SPEs
	cfg.Mem.Latency = opt.Latency
	cfg.MaxCycles = opt.MaxCycles
	cold, err := cell.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}

	target := want.Cycles / 2
	r, err := ReplayTo(sc, CheckOptions{}, false, target)
	if err != nil {
		t.Fatal(err)
	}
	if r.At >= target {
		t.Fatalf("replay paused at %d, want strictly before %d", r.At, target)
	}
	if r.Machine.Now() != r.At {
		t.Fatalf("machine clock %d, replay says %d", r.Machine.Now(), r.At)
	}
	got, err := r.Machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("replayed run differs from cold run: %s", d)
	}

	// Rewind and run the window again: same outcome.
	if err := r.Rewind(); err != nil {
		t.Fatal(err)
	}
	if r.Machine.Now() != r.At {
		t.Fatalf("rewound clock %d, want %d", r.Machine.Now(), r.At)
	}
	again, err := r.Machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, again); d != "" {
		t.Fatalf("rewound run differs: %s", d)
	}
}

// TestReplayerBisection drives a Replayer through a convergent probe
// sequence (the shape of a divergence bisection) and asserts each
// probe pauses strictly before its target, restores from an earlier
// captured boundary instead of cycle 0, and reaches states identical
// to one-shot ReplayTo probes of the same targets.
func TestReplayerBisection(t *testing.T) {
	sc := FromSeed(3)
	// Learn the run length (and the reference outcome) from a cold run.
	cold, err := ReplayTo(sc, CheckOptions{}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := want.Cycles
	if total <= 16 {
		t.Fatalf("scenario too short to bisect: %d cycles", total)
	}

	rp, err := NewReplayer(sc, CheckOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}

	// Binary-search shape: halve the window around total/2.
	lo, hi := sim.Cycle(0), total
	for hi-lo > total/16 {
		mid := lo + (hi-lo)/2
		if mid == 0 {
			break
		}
		r, err := rp.ReplayTo(mid)
		if err != nil {
			t.Fatalf("probe %d: %v", mid, err)
		}
		if r.At >= mid {
			t.Fatalf("probe %d paused at %d, want strictly before", mid, r.At)
		}
		if r.Machine.Now() != r.At {
			t.Fatalf("probe %d: machine clock %d, replay says %d", mid, r.Machine.Now(), r.At)
		}
		// A probe restored from a warm mark must be indistinguishable
		// from a cold walk: finishing from the paused boundary reaches
		// the cold-run outcome exactly.
		got, err := r.Machine.Run()
		if err != nil {
			t.Fatalf("probe %d: finish: %v", mid, err)
		}
		if d := diffResults(want, got); d != "" {
			t.Fatalf("probe %d diverges from cold run: %s", mid, d)
		}
		lo = lo + (hi-lo)/4 // converge asymmetrically to vary restore points
		hi = mid
	}

	// The marks accumulated across probes are what make later probes
	// cheap; they must be sorted, unique and non-empty.
	marks := rp.Marks()
	if len(marks) < 2 {
		t.Fatalf("only %d marks captured across probes", len(marks))
	}
	for i := 1; i < len(marks); i++ {
		if marks[i] <= marks[i-1] {
			t.Fatalf("marks not strictly ascending: %v", marks)
		}
	}

	// A final probe must still finish to the cold-run outcome.
	r, err := rp.ReplayTo(total / 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("replayer probe finishes differently from cold run: %s", d)
	}
}
