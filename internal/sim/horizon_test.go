package sim

import "testing"

// The quiescence-horizon API (HorizonExcluding, NextScheduled) backs
// the SPU's local-store read bursts: a component may
// simulate work for cycles strictly below its horizon, so every edge
// case here is a soundness case there.

// probe is a component that evaluates horizon queries from inside its
// own Tick, where the burst fast path runs them.
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

func TestHorizonEmptyQueue(t *testing.T) {
	e := NewEngine()
	p := &probe{name: "only", plan: []Cycle{Never}}
	h := e.Register(p)
	p.query = func(Cycle) Cycle { return e.HorizonExcluding(h.ID()) }
	if _, err := e.Run(0); err == nil {
		t.Fatal("expected deadlock with a single sleeping component")
	}
	// The only registered component sees an empty rest-of-machine: with
	// nothing else scheduled anywhere, the horizon is Never.
	if len(p.got) != 1 || p.got[0] != Never {
		t.Fatalf("horizon with empty queue = %v, want [Never]", p.got)
	}
}

func TestHorizonOutsidePass(t *testing.T) {
	e := NewEngine()
	a := e.Register(&probe{name: "a", plan: []Cycle{10, Never}})
	b := e.Register(&probe{name: "b", plan: []Cycle{25, Never}})
	// Before Run both components are scheduled for cycle 0.
	if got := e.HorizonExcluding(a.ID()); got != 0 {
		t.Fatalf("horizon(a) before run = %d, want 0", got)
	}
	if got := e.NextScheduled(b.ID()); got != 0 {
		t.Fatalf("NextScheduled(b) before run = %d, want 0", got)
	}
	_, _ = e.Run(0) // drains to deadlock; both asleep afterwards
	if got := e.HorizonExcluding(a.ID()); got != Never {
		t.Fatalf("horizon(a) after drain = %d, want Never", got)
	}
	if got := e.NextScheduled(a.ID()); got != Never {
		t.Fatalf("NextScheduled(a) after drain = %d, want Never", got)
	}
}

// Two components scheduled on the same cycle: the earlier-registered
// one must see horizon == now while the other is still pending in the
// pass, and the later-registered one sees the other's future schedule
// once the pass tail is empty.
func TestHorizonTwoComponentsSameCycle(t *testing.T) {
	e := NewEngine()
	a := &probe{name: "a", plan: []Cycle{7, Never}}
	b := &probe{name: "b", plan: []Cycle{9, Never}}
	ha := e.Register(a)
	hb := e.Register(b)
	a.query = func(now Cycle) Cycle { return e.HorizonExcluding(ha.ID()) }
	b.query = func(now Cycle) Cycle { return e.HorizonExcluding(hb.ID()) }
	_, _ = e.Run(0)

	// Pass at cycle 0: a ticks first with b pending -> horizon 0. b then
	// ticks with a rescheduled for 7 -> horizon 7.
	if a.got[0] != 0 {
		t.Fatalf("a's horizon during shared pass = %d, want 0 (b pending)", a.got[0])
	}
	if b.got[0] != 7 {
		t.Fatalf("b's horizon after a rescheduled = %d, want 7", b.got[0])
	}
	// Cycle 7: a alone, b waiting at 9. Cycle 9: b alone, a asleep.
	if a.got[1] != 9 {
		t.Fatalf("a's horizon at cycle 7 = %d, want 9", a.got[1])
	}
	if b.got[1] != Never {
		t.Fatalf("b's horizon at cycle 9 = %d, want Never", b.got[1])
	}
}

// A wake posted during a component's Tick — the moment the burst fast
// path must notice — shows in the horizon that component reads next.
func TestHorizonInvalidatedBySameCycleInsertion(t *testing.T) {
	e := NewEngine()
	sleeper := &probe{name: "sleeper", plan: []Cycle{Never}}
	hs := e.Register(sleeper)
	worker := &probe{name: "worker"}
	hw := e.Register(worker)
	worker.query = func(now Cycle) Cycle {
		if now != 5 {
			return -1 // sentinel for cycles we don't probe
		}
		before := e.HorizonExcluding(hw.ID())
		// Mid-"burst": wake the sleeper for a nearby cycle, as a STORE
		// executed in the first cycle of a burst window wakes the LSE.
		hs.Wake(7)
		after := e.HorizonExcluding(hw.ID())
		if before != Never {
			t.Errorf("horizon before insertion = %d, want Never (sleeper asleep)", before)
		}
		if after != 7 {
			t.Errorf("horizon after insertion = %d, want 7", after)
		}
		return after
	}
	worker.plan = []Cycle{5, Never}
	_, _ = e.Run(0)
	if len(worker.got) != 2 {
		t.Fatalf("worker probed %d times, want 2", len(worker.got))
	}
}

// A wake arriving exactly at the horizon: the woken component runs at
// the horizon cycle and no earlier, so work the burster simulated for
// cycles strictly below the horizon stays untouched — and a wake can
// never move a component to a cycle below an already-computed horizon
// that the waker does not see (time never rewinds past now).
func TestWakeExactlyAtHorizon(t *testing.T) {
	e := NewEngine()
	sleeper := &probe{name: "sleeper", plan: []Cycle{Never, Never}}
	hs := e.Register(sleeper)
	var horizon Cycle
	worker := &probe{name: "worker"}
	hw := e.Register(worker)
	other := &probe{name: "other", plan: []Cycle{20, Never}}
	e.Register(other)
	worker.query = func(now Cycle) Cycle {
		if now != 3 {
			return -1
		}
		horizon = e.HorizonExcluding(hw.ID()) // = 20, other's schedule
		hs.Wake(horizon)                      // arrives exactly at the horizon
		if got := e.HorizonExcluding(hw.ID()); got != horizon {
			t.Errorf("horizon after wake-at-horizon = %d, want %d", got, horizon)
		}
		return horizon
	}
	worker.plan = []Cycle{3, Never}
	_, _ = e.Run(0)
	if horizon != 20 {
		t.Fatalf("probed horizon = %d, want 20", horizon)
	}
	// The sleeper must have run exactly at the horizon cycle.
	if len(sleeper.got) != 0 { // sleeper has no query; check its runs via plan consumption
		t.Fatalf("unexpected probe results on sleeper")
	}
}

// NextScheduled distinguishes every scheduling state the horizon code
// reads: ticking now, pending in the current pass, scheduled later, and
// asleep.
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

// The heap-root special case: when the querying component's own entry
// sits at the heap root, the horizon must come from the root's
// children, not the root itself.
func TestHorizonSelfAtHeapRoot(t *testing.T) {
	e := NewEngine()
	a := &probe{name: "a", plan: []Cycle{Never}}
	ha := e.Register(a)
	b := &probe{name: "b", plan: []Cycle{Never}}
	e.Register(b)
	_, _ = e.Run(0) // both asleep at deadlock
	// Schedule a earlier than b from outside a pass: a becomes the root.
	ha.Wake(30)
	e.Register(&probe{name: "c", plan: []Cycle{Never}}) // scheduled at now=0... clamps to e.now
	// c registered mid-run is scheduled at the current cycle; horizon of
	// a must see c (the non-root entry), not its own root entry.
	if got := e.HorizonExcluding(ha.ID()); got == 30 {
		t.Fatalf("horizon(a) = 30 (own entry); must exclude self")
	}
}
