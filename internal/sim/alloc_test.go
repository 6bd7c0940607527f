package sim

import "testing"

// mixed exercises shared and distinct strides and self-wakes, covering
// every steady-state scheduling path.
type mixed struct {
	stride Cycle
	until  Cycle
	e      *Engine
	h      *Handle
}

func (m *mixed) Name() string { return "mixed" }
func (m *mixed) Tick(now Cycle) Cycle {
	if now >= m.until {
		m.e.Stop()
		return Never
	}
	if m.stride == 0 {
		// Sleep and rely on a self-wake (exercises Handle.Wake).
		m.h.Wake(now + 3)
		return Never
	}
	return now + m.stride
}

// TestEngineSteadyStateAllocs is the zero-allocation guard on the
// engine loop: after a warm-up run has grown every internal slice,
// Reset+Run must not allocate at all. A regression here (a per-event
// allocation on the scheduling path) multiplies across millions of
// simulated cycles.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	for _, stride := range []Cycle{1, 1, 2, 3, 7, 0, 0} {
		m := &mixed{stride: stride, until: 20_000, e: e}
		m.h = e.Register(m)
	}
	runOnce := func() {
		e.Reset()
		if _, err := e.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	runOnce() // warm slice capacities
	if n := testing.AllocsPerRun(10, runOnce); n != 0 {
		t.Errorf("steady-state engine loop allocates %.1f allocs/op, want 0", n)
	}
}
