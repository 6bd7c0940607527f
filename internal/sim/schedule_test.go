package sim

import "testing"

// NextScheduled is the engine's answer to "when does this component
// run next", which a snapshot records for every component. Every
// scheduling state a component can be in is a case here: before the
// first Run, ticking, pending in the current pass, scheduled later,
// woken from inside another component's Tick, and asleep.

// probe is a component that evaluates schedule queries from inside its
// own Tick.
type probe struct {
	name string
	plan []Cycle
	// query runs inside Tick; the result lands in got.
	query func(now Cycle) Cycle
	got   []Cycle
}

func (p *probe) Name() string { return p.name }

func (p *probe) Tick(now Cycle) Cycle {
	if p.query != nil {
		p.got = append(p.got, p.query(now))
	}
	if len(p.plan) == 0 {
		return Never
	}
	next := p.plan[0]
	p.plan = p.plan[1:]
	return next
}

// Outside a pass: before the first Run every component is due at 0,
// and after the machine drained every one sleeps.
func TestHorizonOutsidePass(t *testing.T) {
	e := NewEngine()
	a := e.Register(&probe{name: "a", plan: []Cycle{10, Never}})
	b := e.Register(&probe{name: "b", plan: []Cycle{25, Never}})
	for _, h := range []*Handle{a, b} {
		if got := e.NextScheduled(h.ID()); got != 0 {
			t.Fatalf("NextScheduled(%d) before run = %d, want 0", h.ID(), got)
		}
	}
	_, _ = e.Run(0) // drains to deadlock; both asleep afterwards
	for _, h := range []*Handle{a, b} {
		if got := e.NextScheduled(h.ID()); got != Never {
			t.Fatalf("NextScheduled(%d) after drain = %d, want Never", h.ID(), got)
		}
	}
}

// Two components scheduled on the same cycle: the earlier-registered
// one sees the other due now while it is still pending in the pass, and
// the later-registered one sees the other's future schedule once the
// other has ticked.
func TestHorizonTwoComponentsSameCycle(t *testing.T) {
	e := NewEngine()
	a := &probe{name: "a", plan: []Cycle{7, Never}}
	b := &probe{name: "b", plan: []Cycle{9, Never}}
	ha := e.Register(a)
	hb := e.Register(b)
	a.query = func(now Cycle) Cycle { return e.NextScheduled(hb.ID()) }
	b.query = func(now Cycle) Cycle { return e.NextScheduled(ha.ID()) }
	_, _ = e.Run(0)

	// Pass at cycle 0: a ticks first with b pending -> 0. b then ticks
	// with a rescheduled for 7 -> 7.
	if a.got[0] != 0 {
		t.Fatalf("b as a sees it during the shared pass = %d, want 0 (pending)", a.got[0])
	}
	if b.got[0] != 7 {
		t.Fatalf("a as b sees it after a rescheduled = %d, want 7", b.got[0])
	}
	// Cycle 7: a alone, b waiting at 9. Cycle 9: b alone, a asleep.
	if a.got[1] != 9 {
		t.Fatalf("b as a sees it at cycle 7 = %d, want 9", a.got[1])
	}
	if b.got[1] != Never {
		t.Fatalf("a as b sees it at cycle 9 = %d, want Never", b.got[1])
	}
}

// A wake posted during a component's Tick shows in the woken
// component's schedule at once.
func TestHorizonInvalidatedBySameCycleInsertion(t *testing.T) {
	e := NewEngine()
	sleeper := &probe{name: "sleeper", plan: []Cycle{Never}}
	hs := e.Register(sleeper)
	worker := &probe{name: "worker"}
	worker.query = func(now Cycle) Cycle {
		if now != 5 {
			return -1 // sentinel for cycles we don't probe
		}
		before := e.NextScheduled(hs.ID())
		hs.Wake(7)
		after := e.NextScheduled(hs.ID())
		if before != Never {
			t.Errorf("sleeper before the wake = %d, want Never", before)
		}
		if after != 7 {
			t.Errorf("sleeper after the wake = %d, want 7", after)
		}
		return after
	}
	e.Register(worker)
	worker.plan = []Cycle{5, Never}
	_, _ = e.Run(0)
	if len(worker.got) != 2 {
		t.Fatalf("worker probed %d times, want 2", len(worker.got))
	}
}

// A wake for the cycle another component is next due on: the woken
// component runs on that cycle, and no earlier.
func TestWakeExactlyAtHorizon(t *testing.T) {
	e := NewEngine()
	sleeper := &probe{name: "sleeper", plan: []Cycle{Never, Never}}
	sleeper.query = func(now Cycle) Cycle { return now }
	hs := e.Register(sleeper)
	var due Cycle
	worker := &probe{name: "worker"}
	e.Register(worker)
	other := &probe{name: "other", plan: []Cycle{20, Never}}
	ho := e.Register(other)
	worker.query = func(now Cycle) Cycle {
		if now != 3 {
			return -1
		}
		due = e.NextScheduled(ho.ID()) // = 20, other's schedule
		hs.Wake(due)
		if got := e.NextScheduled(hs.ID()); got != due {
			t.Errorf("sleeper after a wake for %d = %d", due, got)
		}
		return due
	}
	worker.plan = []Cycle{3, Never}
	_, _ = e.Run(0)
	if due != 20 {
		t.Fatalf("other's next cycle = %d, want 20", due)
	}
	if len(sleeper.got) != 2 || sleeper.got[1] != due {
		t.Fatalf("sleeper ran on %v, want [0 %d]", sleeper.got, due)
	}
}

// NextScheduled distinguishes every scheduling state: ticking now,
// pending in the current pass, scheduled later, and asleep.
func TestNextScheduledStates(t *testing.T) {
	e := NewEngine()
	a := &probe{name: "a"}
	b := &probe{name: "b", plan: []Cycle{4, Never}}
	c := &probe{name: "c", plan: []Cycle{Never}}
	ha := e.Register(a)
	hb := e.Register(b)
	hc := e.Register(c)
	a.query = func(now Cycle) Cycle {
		switch now {
		case 0:
			if got := e.NextScheduled(ha.ID()); got != 0 {
				t.Errorf("NextScheduled(self, ticking) = %d, want 0", got)
			}
			if got := e.NextScheduled(hb.ID()); got != 0 {
				t.Errorf("NextScheduled(pending in pass) = %d, want 0", got)
			}
		case 2:
			// b rescheduled itself for 4, c sleeps.
			if got := e.NextScheduled(hb.ID()); got != 4 {
				t.Errorf("NextScheduled(b at cycle 2) = %d, want 4", got)
			}
			if got := e.NextScheduled(hc.ID()); got != Never {
				t.Errorf("NextScheduled(sleeping) = %d, want Never", got)
			}
		}
		return -1
	}
	a.plan = []Cycle{2, Never}
	_, _ = e.Run(0)
}
