package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

// recorder ticks at scripted cycles and records when it actually ran.
type recorder struct {
	name  string
	plan  []Cycle // cycles at which it asks to run next (consumed in order)
	runs  []Cycle
	onRun func(now Cycle)
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) Tick(now Cycle) Cycle {
	r.runs = append(r.runs, now)
	if r.onRun != nil {
		r.onRun(now)
	}
	if len(r.plan) == 0 {
		return Never
	}
	next := r.plan[0]
	r.plan = r.plan[1:]
	return next
}

func (r *recorder) DumpState() string { return "recorder" }

func TestEngineSkipsIdleTime(t *testing.T) {
	e := NewEngine()
	r := &recorder{name: "r", plan: []Cycle{100, 5000, Never}}
	h := e.Register(r)
	_ = h
	stopper := &recorder{name: "stop", plan: []Cycle{5000}}
	se := e.Register(stopper)
	_ = se
	stopper.onRun = func(now Cycle) {
		if now >= 5000 {
			e.Stop()
		}
	}
	at, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5000 {
		t.Fatalf("stopped at %d, want 5000", at)
	}
	want := []Cycle{0, 100, 5000}
	if len(r.runs) != len(want) {
		t.Fatalf("runs = %v, want %v", r.runs, want)
	}
	for i := range want {
		if r.runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", r.runs, want)
		}
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Register(&recorder{name: "a", plan: []Cycle{10, Never}})
	_, err := e.Run(0)
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if dl.At != 10 {
		t.Fatalf("deadlock at %d, want 10", dl.At)
	}
	if len(dl.Dumps) != 1 || dl.Dumps[0] != "a: recorder" {
		t.Fatalf("dumps = %v", dl.Dumps)
	}
}

func TestEngineCycleLimit(t *testing.T) {
	e := NewEngine()
	busy := &recorder{name: "busy"}
	busy.onRun = func(Cycle) { busy.plan = append(busy.plan, e.Now()+1) }
	e.Register(busy)
	_, err := e.Run(50)
	var lim *ErrLimit
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if lim.Limit != 50 {
		t.Fatalf("limit = %d, want 50", lim.Limit)
	}
}

func TestWakeSchedulesSleepingComponent(t *testing.T) {
	e := NewEngine()
	sleeper := &recorder{name: "sleeper", plan: []Cycle{Never, Never}}
	sh := e.Register(sleeper)
	waker := &recorder{name: "waker", plan: []Cycle{20, Never}}
	waker.onRun = func(now Cycle) {
		if now == 20 {
			sh.Wake(now + 3)
		}
	}
	e.Register(waker)
	ender := &recorder{name: "ender", plan: []Cycle{30}}
	ender.onRun = func(now Cycle) {
		if now == 30 {
			e.Stop()
		}
	}
	e.Register(ender)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// sleeper runs at 0 (initial) and at 23 (woken).
	if len(sleeper.runs) != 2 || sleeper.runs[1] != 23 {
		t.Fatalf("sleeper.runs = %v, want [0 23]", sleeper.runs)
	}
}

func TestWakeInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	sleeper := &recorder{name: "sleeper", plan: []Cycle{Never, Never}}
	sh := e.Register(sleeper)
	w := &recorder{name: "w", plan: []Cycle{40}}
	w.onRun = func(now Cycle) {
		if now == 40 {
			sh.Wake(1) // in the past: must clamp, not rewind
			e.Stop()
		}
	}
	e.Register(w)
	at, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 40 {
		t.Fatalf("stopped at %d, want 40", at)
	}
}

func TestSameCycleWakeForLaterComponentRunsInSweep(t *testing.T) {
	e := NewEngine()
	a := &recorder{name: "a", plan: []Cycle{5, Never}}
	b := &recorder{name: "b", plan: []Cycle{Never, Never}}
	var bh *Handle
	a.onRun = func(now Cycle) {
		if now == 5 {
			bh.Wake(5) // b is later in the sweep: must run this very cycle
		}
	}
	b.onRun = func(now Cycle) {
		if now == 5 {
			e.Stop()
		}
	}
	e.Register(a)
	bh = e.Register(b)
	at, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5 {
		t.Fatalf("stopped at %d, want 5 (b woken same-cycle)", at)
	}
	if len(b.runs) != 2 || b.runs[1] != 5 {
		t.Fatalf("b.runs = %v, want [0 5]", b.runs)
	}
}

func TestTickReturningPastClampsForward(t *testing.T) {
	e := NewEngine()
	n := 0
	c := &recorder{name: "c"}
	c.onRun = func(now Cycle) {
		n++
		if n >= 5 {
			e.Stop()
			return
		}
		// plan empty -> Tick returns Never unless we refill; instead
		// return "now" (a past/equal value) via the plan to exercise
		// clamping.
		c.plan = []Cycle{now}
	}
	e.Register(c)
	at, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each clamped return advances exactly one cycle: 0,1,2,3,4.
	if at != 4 {
		t.Fatalf("stopped at %d, want 4", at)
	}
}

func TestRegistrationOrderIsTickOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string) *recorder {
		r := &recorder{name: name, plan: []Cycle{Never}}
		r.onRun = func(Cycle) { order = append(order, name) }
		return r
	}
	e.Register(mk("first"))
	e.Register(mk("second"))
	e.Register(mk("third"))
	stop := &recorder{name: "stop", plan: []Cycle{Never}}
	stop.onRun = func(Cycle) { e.Stop() }
	e.Register(stop)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("order = %v", order)
	}
}

// TestEngineDeterminism drives two identical engines with a pseudo-random
// wake pattern and checks that both record identical run traces.
func TestEngineDeterminism(t *testing.T) {
	build := func(seed uint64) []Cycle {
		rng := NewRand(seed)
		e := NewEngine()
		var trace []Cycle
		var handles []*Handle
		for i := 0; i < 8; i++ {
			r := &recorder{name: "r"}
			idx := i
			r.onRun = func(now Cycle) {
				trace = append(trace, now*10+Cycle(idx))
				if now < 200 {
					// wake a pseudo-random peer a pseudo-random distance out
					handles[rng.Intn(len(handles))].Wake(now + 1 + Cycle(rng.Intn(7)))
				}
			}
			handles = append(handles, e.Register(r))
		}
		stop := &recorder{name: "stop", plan: []Cycle{400}}
		stop.onRun = func(now Cycle) {
			if now >= 400 {
				e.Stop()
			}
		}
		e.Register(stop)
		if _, err := e.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a := build(42)
	b := build(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandDistributionAndDeterminism(t *testing.T) {
	r1 := NewRand(7)
	r2 := NewRand(7)
	for i := 0; i < 1000; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	// Zero seed must not collapse to all zeros.
	rz := NewRand(0)
	if rz.Uint64() == 0 && rz.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
	// Intn stays in range (property test).
	if err := quick.Check(func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		v := NewRand(seed).Intn(bound)
		return v >= 0 && v < bound
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// TestTicksCountPerComponent: Ticks is the number of Tick calls a
// component received since the last Reset, whatever scheduled them.
func TestTicksCountPerComponent(t *testing.T) {
	e := NewEngine()
	a := &recorder{name: "a", plan: []Cycle{1, 2, 10, Never}} // ticks at 0, 1, 2, 10
	b := &recorder{name: "b", plan: []Cycle{Never, Never}}    // at 0, then once when woken
	ha := e.Register(a)
	hb := e.Register(b)
	a.onRun = func(now Cycle) {
		if now == 2 {
			hb.Wake(5)
		}
	}
	stop := &recorder{name: "stop", plan: []Cycle{20}}
	stop.onRun = func(now Cycle) {
		if now >= 20 {
			e.Stop()
		}
	}
	e.Register(stop)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := e.Ticks(ha.ID()); got != 4 || int(got) != len(a.runs) {
		t.Errorf("a: Ticks = %d, ticked %d times, want 4", got, len(a.runs))
	}
	if got := e.Ticks(hb.ID()); got != 2 || int(got) != len(b.runs) {
		t.Errorf("b: Ticks = %d, ticked %d times, want 2", got, len(b.runs))
	}
	if e.NumComponents() != 3 || e.ComponentName(hb.ID()) != "b" {
		t.Errorf("NumComponents = %d, ComponentName(b) = %q", e.NumComponents(), e.ComponentName(hb.ID()))
	}
	e.Reset()
	if got := e.Ticks(ha.ID()); got != 0 {
		t.Errorf("Ticks after Reset = %d, want 0", got)
	}
}
