package cell

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/snap"
	"repro/internal/spu"
)

// TestSnapshotRestoreIdentity is the checkpoint contract: running to a
// mid-run boundary, capturing, restoring into a fresh machine and
// finishing must be indistinguishable — cycles, every statistic,
// tokens, the guest profile and the final memory image — from an
// uninterrupted run. The donor machine must also be unperturbed by the
// capture.
func TestSnapshotRestoreIdentity(t *testing.T) {
	progs := []struct {
		name string
		p    *program.Program
	}{
		{"loop", progLoop(t, 100)},
		{"memory", progMemory(t)},
		{"dma", progManualDMA(t)},
		{"forkjoin", progForkJoin(t, 6)},
	}
	for _, spes := range []int{1, 2} {
		for _, tc := range progs {
			cfg := smallConfig(spes)

			coldM, err := New(cfg, tc.p)
			if err != nil {
				t.Fatalf("%s/%d New: %v", tc.name, spes, err)
			}
			want, err := coldM.Run()
			if err != nil {
				t.Fatalf("%s/%d cold Run: %v", tc.name, spes, err)
			}

			donor, err := New(cfg, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			div := want.Cycles / 2
			at, st, err := donor.RunTo(div)
			if err != nil {
				t.Fatalf("%s/%d RunTo(%d): %v", tc.name, spes, div, err)
			}
			if st == StepDone {
				t.Fatalf("%s/%d completed at %d before divergence cycle %d", tc.name, spes, at, div)
			}
			if at < div {
				t.Fatalf("%s/%d RunTo stopped at %d < %d", tc.name, spes, at, div)
			}
			key := SnapshotKey(cfg, tc.p, div)
			blob, err := donor.EncodeSnapshot(key)
			if err != nil {
				t.Fatalf("%s/%d EncodeSnapshot: %v", tc.name, spes, err)
			}

			forked, err := New(cfg, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if err := forked.RestoreSnapshot(blob, key); err != nil {
				t.Fatalf("%s/%d RestoreSnapshot: %v", tc.name, spes, err)
			}
			if forked.Now() != at {
				t.Fatalf("%s/%d restored clock %d, captured at %d", tc.name, spes, forked.Now(), at)
			}
			got, err := forked.Run()
			if err != nil {
				t.Fatalf("%s/%d forked Run: %v", tc.name, spes, err)
			}
			if got.CheckErr != nil {
				t.Fatalf("%s/%d forked functional check: %v", tc.name, spes, got.CheckErr)
			}
			resultsIdentical(t, want, got, tc.name+"/forked")
			if !coldM.Profile().Equal(forked.Profile()) {
				t.Errorf("%s/%d: forked profile differs from cold profile", tc.name, spes)
			}
			if addr, equal := mem.FirstDiff(coldM.MemSparse(), forked.MemSparse()); !equal {
				t.Errorf("%s/%d: forked memory image diverges at %#x", tc.name, spes, addr)
			}

			// The donor continues past the capture untouched.
			donorRes, err := donor.Run()
			if err != nil {
				t.Fatalf("%s/%d donor Run: %v", tc.name, spes, err)
			}
			resultsIdentical(t, want, donorRes, tc.name+"/donor")
		}
	}
}

// TestSnapshotBetweenRunSteps captures a run between two kernel windows
// of one local-store loop, which the SPU iterates in place: the steps
// taken before the capture are counts the SPU charges to the profile
// later, so the blob must carry them charged. Restored into a fresh
// machine and finished, the run must end with the cold run's profile
// and statistics.
func TestSnapshotBetweenRunSteps(t *testing.T) {
	b := program.NewBuilder("ls-loop")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0) // iterations
	ex := root.EX()
	ex.Addi(program.R(6), program.RegPFB, 0x9000)
	ex.Label("top")
	ex.Lswr8(program.R(1), program.R(6), 0)
	ex.Lsrd8(program.R(5), program.R(6), 0)
	ex.Add(program.R(2), program.R(2), program.R(5))
	ex.Subi(program.R(1), program.R(1), 1)
	ex.Bne(program.R(1), program.R(0), "top")
	ex.Addi(program.R(3), program.R(2), 1)
	root.PS().StoreMailbox(program.R(2), program.R(4), 0).Ffree().Stop()
	b.Entry(root, 20_000)
	p := build(t, b)
	cfg := smallConfig(1)

	cold, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Cycles < 3*spu.DefaultBurstMax {
		t.Fatalf("the run takes %d cycles; the test needs it to span several kernel windows", want.Cycles)
	}
	donor, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	div := want.Cycles / 2
	if _, st, err := donor.RunTo(div); err != nil || st == StepDone {
		t.Fatalf("RunTo(%d): %v, %v", div, st, err)
	}
	key := SnapshotKey(cfg, p, div)
	blob, err := donor.EncodeSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := forked.RestoreSnapshot(blob, key); err != nil {
		t.Fatal(err)
	}
	got, err := forked.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, got, "forked")
	if !cold.Profile().Equal(forked.Profile()) {
		t.Error("forked profile differs from cold profile")
	}
}

// TestSnapshotRoundTripStable re-captures a restored machine and
// expects byte-identical payloads: the codec must be a fixed point, or
// content-addressed caching would never converge.
func TestSnapshotRoundTripStable(t *testing.T) {
	cfg := smallConfig(2)
	p := progForkJoin(t, 6)
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	div := want.Cycles / 2

	donor, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := donor.RunTo(div); err != nil {
		t.Fatal(err)
	}
	key := SnapshotKey(cfg, p, div)
	blob1, err := donor.EncodeSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(blob1, key); err != nil {
		t.Fatal(err)
	}
	blob2, err := restored.EncodeSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("re-captured snapshot differs: %d vs %d bytes", len(blob1), len(blob2))
	}
}

// TestSnapshotRoundTripReadInFlight captures with a blocking READ under
// way in each leg — the request handed to the memory, or the response
// handed to the SPU, short of its delivery cycle. Such a message is not
// in the engine's pending work: it lives with the endpoint that holds
// it, and the network's message count at the capture leaves it out. The restored machine must hold it,
// count like the donor, re-capture to the same bytes and finish like a
// cold run.
func TestSnapshotRoundTripReadInFlight(t *testing.T) {
	cfg := smallConfig(2)
	p := progForkJoinEX(t, 6, func(ex *program.Asm) {
		ex.Movi(program.R(6), 0x100000)
		ex.Movi(program.R(7), 0)
		ex.Movi(program.R(8), 5)
		ex.Addi(program.R(13), program.RegPFB, 0x9000)
		ex.Lswr8(program.R(13), program.R(13), 0) // a local-store word that points to itself
		ex.Label("rd")
		// A delay of `value` iterations, different per worker, so that one
		// SPU computes (and the engine has events) while another's READ
		// is in the interconnect. Each iteration chases the pointer: the
		// second read's address is the first's result, so no run holds
		// both, and the first, a local-store op outside a run, ends the
		// SPU's kernel window and issues on the engine clock.
		ex.Movi(program.R(10), 0)
		ex.Label("delay")
		ex.Lsrd8(program.R(12), program.R(13), 0)
		ex.Lsrd8(program.R(11), program.R(12), 0)
		ex.Addi(program.R(10), program.R(10), 1)
		ex.Blt(program.R(10), program.R(1), "delay")
		ex.Read(program.R(5), program.R(6), 0)
		ex.Add(program.R(9), program.R(9), program.R(5))
		ex.Addi(program.R(6), program.R(6), 4)
		ex.Addi(program.R(7), program.R(7), 1)
		ex.Blt(program.R(7), program.R(8), "rd")
	})
	want := run(t, cfg, p)
	for _, leg := range []struct {
		name     string
		inFlight func(m *Machine) int
	}{
		{"request", func(m *Machine) int { return m.memory.Undelivered(m.Now()) }},
		{"response", func(m *Machine) int {
			k := 0
			for _, spe := range m.spes {
				k += spe.SPU.Undelivered(m.Now())
			}
			return k
		}},
	} {
		// Walk the donor pass by pass to the first boundary with the leg
		// occupied.
		donor, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		for leg.inFlight(donor) == 0 {
			if st, err := donor.StepUntil(donor.Now() + 1); err != nil || st == StepDone {
				t.Fatalf("%s: the run ended with no boundary inside the leg: %v", leg.name, err)
			}
		}
		key := SnapshotKey(cfg, p, donor.Now())
		blob, err := donor.EncodeSnapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := forked.RestoreSnapshot(blob, key); err != nil {
			t.Fatalf("%s: RestoreSnapshot: %v", leg.name, err)
		}
		if got, want := leg.inFlight(forked), leg.inFlight(donor); got != want {
			t.Fatalf("%s: restored machine has %d messages in the leg, donor %d", leg.name, got, want)
		}
		if got, want := forked.net.Stats(forked.Now()), donor.net.Stats(donor.Now()); got != want {
			t.Fatalf("%s: restored network stats %+v, donor %+v", leg.name, got, want)
		}
		again, err := forked.EncodeSnapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("%s: re-captured snapshot differs: %d vs %d bytes", leg.name, len(blob), len(again))
		}
		got, err := forked.Run()
		if err != nil {
			t.Fatalf("%s: forked Run: %v", leg.name, err)
		}
		resultsIdentical(t, want, got, leg.name+"/forked")
		donorRes, err := donor.Run()
		if err != nil {
			t.Fatalf("%s: donor Run: %v", leg.name, err)
		}
		resultsIdentical(t, want, donorRes, leg.name+"/donor")
	}
}

// TestSnapshotVersionMismatch: an envelope of another version — a future
// one, or the previous layout, which kept in-flight READs in the network
// — must be rejected with a typed error, not misdecoded.
func TestSnapshotVersionMismatch(t *testing.T) {
	cfg := smallConfig(1)
	p := progMinimal(t)
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunTo(10); err != nil {
		t.Fatal(err)
	}
	w := snap.NewEncoder()
	if err := m.walk(w); err != nil {
		t.Fatal(err)
	}
	key := SnapshotKey(cfg, p, 10)
	fresh, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{SnapshotVersion + 1, SnapshotVersion - 1} {
		err = fresh.RestoreSnapshot(snap.Encode(version, key, w.Payload()), key)
		var verr *snap.VersionError
		if !errors.As(err, &verr) {
			t.Fatalf("RestoreSnapshot of version %d = %v, want snap.VersionError", version, err)
		}
		if verr.Got != version || verr.Want != SnapshotVersion {
			t.Fatalf("VersionError = %+v", verr)
		}
	}

	// Wrong identity is rejected too.
	good := snap.Encode(SnapshotVersion, key, w.Payload())
	if err := fresh.RestoreSnapshot(good, "not-the-key"); err == nil {
		t.Fatal("RestoreSnapshot accepted a mismatched identity")
	}
}

// TestSnapshotGatesUnserialisableState: recording buffers are not
// serialised, so capture must refuse rather than silently drop them.
func TestSnapshotGatesUnserialisableState(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Record = true
	m, err := New(cfg, progMinimal(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.walk(snap.NewEncoder()); err == nil {
		t.Errorf("Snapshot succeeded with cfg %+v", cfg)
	}
}

// TestKnobDivergence: restoring a checkpoint and flipping a knob must
// equal running cold to the same boundary and flipping it there — the
// fork-vs-cold identity the harness sweep relies on.
func TestKnobDivergence(t *testing.T) {
	cfg := smallConfig(2)
	p := progMemory(t)
	base, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	div := baseRes.Cycles / 2
	knobs := Knobs{MemLatency: cfg.Mem.Latency * 2, MFCCmdLatency: cfg.MFC.CmdLatency + 10}

	// Cold reference: simulate from cycle 0, apply knobs at the boundary.
	cold, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	at, _, err := cold.RunTo(div)
	if err != nil {
		t.Fatal(err)
	}
	cold.ApplyKnobs(knobs)
	want, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Forked: capture at the boundary, restore, apply the same knobs.
	donor, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	dAt, _, err := donor.RunTo(div)
	if err != nil {
		t.Fatal(err)
	}
	if dAt != at {
		t.Fatalf("boundary cycles differ: cold %d, donor %d", at, dAt)
	}
	key := SnapshotKey(cfg, p, div)
	blob, err := donor.EncodeSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := forked.RestoreSnapshot(blob, key); err != nil {
		t.Fatal(err)
	}
	forked.ApplyKnobs(knobs)
	if !forked.Knobbed() {
		t.Fatal("ApplyKnobs did not mark the machine knobbed")
	}
	got, err := forked.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, got, "knob-divergence")
	if addr, equal := mem.FirstDiff(cold.MemSparse(), forked.MemSparse()); !equal {
		t.Errorf("knob-divergence: memory image diverges at %#x", addr)
	}
	if want.Cycles == baseRes.Cycles {
		t.Logf("note: knobbed run matched base cycle count %d (knob had no effect on this program)", want.Cycles)
	}

	// Reset restores the construction-time parameters for pooled reuse.
	if err := forked.Reset(p); err != nil {
		t.Fatal(err)
	}
	if forked.Knobbed() {
		t.Fatal("Reset left the machine marked knobbed")
	}
	again, err := forked.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, baseRes, again, "post-reset")
}

// TestSnapshotKeyDisambiguates: the key must separate programs,
// configurations and divergence cycles.
func TestSnapshotKeyDisambiguates(t *testing.T) {
	cfg := smallConfig(2)
	cfg2 := cfg
	cfg2.Mem.Latency++
	pa, pb := progLoop(t, 100), progLoop(t, 101)
	base := SnapshotKey(cfg, pa, 1000)
	for name, other := range map[string]string{
		"config":    SnapshotKey(cfg2, pa, 1000),
		"program":   SnapshotKey(cfg, pb, 1000),
		"diverge":   SnapshotKey(cfg, pa, 2000),
		"identical": SnapshotKey(cfg, progLoop(t, 100), 1000),
	} {
		same := other == base
		if name == "identical" && !same {
			t.Errorf("identical inputs produced different keys")
		}
		if name != "identical" && same {
			t.Errorf("%s change did not change the key", name)
		}
	}
}
