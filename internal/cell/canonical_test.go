package cell_test

import (
	"bytes"
	"testing"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestSnapshotBytesCanonical: equal machine state gives equal snapshot
// bytes, however the run reached it. Each quick 8-SPE benchmark is
// driven to the same boundary twice — once by RunTo, once by stepping
// one cycle at a time — and captured there. The two paths leave the
// same state but can leave a heap (memory inbox and responses, network
// deliveries, MFC timers) in a different internal layout, so a codec
// that wrote heaps in layout order gave different blobs for the same
// machine.
func TestSnapshotBytesCanonical(t *testing.T) {
	opt := harness.Options{Quick: true, SPEs: 8, Latency: 150}
	cfg := harness.MachineConfig(opt)
	for _, tc := range []struct {
		name  string
		bench string
		pf    bool
	}{
		{"zoom-orig", "zoom", false},
		{"bitcnt-orig", "bitcnt", false},
		{"bitcnt-pf", "bitcnt", true},
	} {
		prog, err := harness.BenchProgram(opt, tc.bench, 0, tc.pf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cell.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, den := range []sim.Cycle{5, 4, 3, 2} {
			div := want.Cycles / den
			key := cell.SnapshotKey(cfg, prog, div)
			capture := func(drive func(*cell.Machine) error) (sim.Cycle, []byte) {
				t.Helper()
				m, err := cell.New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := drive(m); err != nil {
					t.Fatalf("%s at 1/%d: %v", tc.name, den, err)
				}
				blob, err := m.EncodeSnapshot(key)
				if err != nil {
					t.Fatalf("%s at 1/%d: %v", tc.name, den, err)
				}
				return m.Now(), blob
			}
			atA, a := capture(func(m *cell.Machine) error {
				_, _, err := m.RunTo(div)
				return err
			})
			atB, b := capture(func(m *cell.Machine) error {
				for m.Now() < div {
					if _, err := m.StepUntil(m.Now() + 1); err != nil {
						return err
					}
				}
				return nil
			})
			if atA != atB {
				t.Fatalf("%s at 1/%d: RunTo stopped at %d, single steps at %d", tc.name, den, atA, atB)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s at 1/%d (cycle %d): equal machines gave different snapshot bytes (%d and %d bytes)",
					tc.name, den, atA, len(a), len(b))
			}
		}
	}
}
