package sim

// Edge-case coverage for Handle.Wake under the heap scheduler: clamping,
// already-due targets, self-wakes during Tick, wakes after Stop, and
// wakes that move a strided component's scheduled cycle earlier.

import "testing"

func cyclesEqual(t *testing.T, got, want []Cycle, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", label, got, want)
		}
	}
}

// TestWakePastClampsBucketEntry wakes a component that re-ticks on a
// fixed stride with a cycle in the past: the wake must clamp to the
// current cycle, move the scheduled entry earlier, and not run the
// component twice.
func TestWakePastClampsBucketEntry(t *testing.T) {
	e := NewEngine()
	b := &recorder{name: "b"}
	b.onRun = func(now Cycle) {
		if now < 20 {
			b.plan = []Cycle{now + 5}
		}
	}
	bh := e.Register(b)
	w := &recorder{name: "w", plan: []Cycle{7, 20}}
	w.onRun = func(now Cycle) {
		if now == 7 {
			bh.Wake(3) // past: clamps to 7, beats b's pending cycle-10 slot
		}
		if now >= 20 {
			e.Stop()
		}
	}
	e.Register(w)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// b ticks on its stride 0,5 then is yanked to 7 and restrides: 12, 17.
	cyclesEqual(t, b.runs, []Cycle{0, 5, 7, 12, 17}, "b.runs")
}

// TestWakeAlreadyDueIsNoOp wakes a component that is already due later
// in the same pass: it must still run exactly once on that cycle.
func TestWakeAlreadyDueIsNoOp(t *testing.T) {
	e := NewEngine()
	var ch *Handle
	a := &recorder{name: "a", plan: []Cycle{5, Never}}
	a.onRun = func(now Cycle) {
		if now == 5 {
			ch.Wake(5) // c is due at 5 anyway
			ch.Wake(6) // and a later wake must not beat the due slot
		}
	}
	e.Register(a)
	c := &recorder{name: "c", plan: []Cycle{5, Never, Never}}
	ch = e.Register(c)
	stop := &recorder{name: "stop", plan: []Cycle{8}}
	stop.onRun = func(now Cycle) {
		if now == 8 {
			e.Stop()
		}
	}
	e.Register(stop)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cyclesEqual(t, c.runs, []Cycle{0, 5}, "c.runs")
}

// TestSelfWakeDuringTick exercises both self-wake flavours: a same-cycle
// self-wake clamps to now+1, and a future self-wake merges (via min)
// with the Tick return value.
func TestSelfWakeDuringTick(t *testing.T) {
	e := NewEngine()
	var sh *Handle
	s := &recorder{name: "s"}
	s.onRun = func(now Cycle) {
		switch now {
		case 0:
			sh.Wake(0) // same-cycle self-wake: interpreted as now+1
		case 1:
			sh.Wake(4) // future self-wake beats the Never return
		case 4:
			sh.Wake(9)
			s.plan = []Cycle{6} // ... but Tick's own return wins when earlier
		}
	}
	sh = e.Register(s)
	stop := &recorder{name: "stop", plan: []Cycle{12}}
	stop.onRun = func(now Cycle) {
		if now == 12 {
			e.Stop()
		}
	}
	e.Register(stop)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cyclesEqual(t, s.runs, []Cycle{0, 1, 4, 6}, "s.runs")
}

// TestWakeAfterStop stops the engine, wakes a sleeping component from
// outside Run, and checks that Resume + Run honours the wake (the
// machine uses this to drain write-back DMA after completion).
func TestWakeAfterStop(t *testing.T) {
	e := NewEngine()
	s := &recorder{name: "s", plan: []Cycle{Never, Never}}
	sh := e.Register(s)
	stopper := &recorder{name: "stop", plan: []Cycle{10, 40, Never}}
	stopper.onRun = func(now Cycle) {
		if now == 10 || now == 40 {
			e.Stop()
		}
	}
	e.Register(stopper)
	if at, err := e.Run(0); err != nil || at != 10 {
		t.Fatalf("first Run = %d, %v; want 10, nil", at, err)
	}
	sh.Wake(25)
	sh.Wake(2) // in the past relative to now=10: clamps, never rewinds
	e.Resume()
	if at, err := e.Run(0); err != nil || at != 40 {
		t.Fatalf("second Run = %d, %v; want 40, nil", at, err)
	}
	// The past wake (clamped to 10) merged with the cycle-25 wake via
	// min, so the sleeper reran at cycle 10, the current cycle.
	cyclesEqual(t, s.runs, []Cycle{0, 10}, "s.runs")
}

// TestStopMidPassRequeuesRemainder stops the engine from the middle of a
// pass and checks that the not-yet-ticked components of that cycle run
// when the engine is resumed, rather than being dropped.
func TestStopMidPassRequeuesRemainder(t *testing.T) {
	e := NewEngine()
	first := &recorder{name: "first", plan: []Cycle{3, Never}}
	first.onRun = func(now Cycle) {
		if now == 3 {
			e.Stop()
		}
	}
	e.Register(first)
	second := &recorder{name: "second", plan: []Cycle{3, Never}}
	e.Register(second)
	if at, err := e.Run(0); err != nil || at != 3 {
		t.Fatalf("Run = %d, %v; want 3, nil", at, err)
	}
	cyclesEqual(t, second.runs, []Cycle{0}, "second.runs before resume")
	e.Resume()
	second.plan = []Cycle{Never}
	done := false
	second.onRun = func(now Cycle) {
		if now == 3 && len(second.runs) == 2 {
			done = true
			e.Stop()
		}
	}
	if _, err := e.Run(0); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if !done {
		t.Fatalf("second.runs = %v, want a second tick at cycle 3", second.runs)
	}
}

// TestWakeEarlierThanBucketSlot wakes a strided component to a nearer
// future cycle: the scheduled entry must be superseded, not duplicated.
func TestWakeEarlierThanBucketSlot(t *testing.T) {
	e := NewEngine()
	b := &recorder{name: "b"}
	b.onRun = func(now Cycle) {
		if now < 30 {
			b.plan = []Cycle{now + 10}
		}
	}
	bh := e.Register(b)
	w := &recorder{name: "w", plan: []Cycle{12, 35}}
	w.onRun = func(now Cycle) {
		if now == 12 {
			bh.Wake(14) // b's slot is 20; 14 must win, 20 must vanish
		}
		if now >= 35 {
			e.Stop()
		}
	}
	e.Register(w)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cyclesEqual(t, b.runs, []Cycle{0, 10, 14, 24, 34}, "b.runs")
}
