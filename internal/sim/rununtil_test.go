package sim

import (
	"errors"
	"slices"
	"testing"
)

// buildChatter wires the TestEngineDeterminism topology — eight
// recorders waking pseudo-random peers plus a stopper at 400 — onto e
// and returns the shared tick trace.
func buildChatter(e *Engine, seed uint64) *[]Cycle {
	rng := NewRand(seed)
	trace := &[]Cycle{}
	var handles []*Handle
	for i := 0; i < 8; i++ {
		r := &recorder{name: "r"}
		idx := i
		r.onRun = func(now Cycle) {
			*trace = append(*trace, now*10+Cycle(idx))
			if now < 200 {
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
	return trace
}

// TestRunUntilSlicesMatchRun is the slicing-fidelity contract: driving
// an engine through arbitrary RunUntil budgets must reproduce an
// uninterrupted Run tick for tick, ending on the same cycle.
func TestRunUntilSlicesMatchRun(t *testing.T) {
	ref := NewEngine()
	refTrace := buildChatter(ref, 42)
	refEnd, err := ref.Run(0)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}

	for _, budget := range []Cycle{1, 3, 7, 64, 1000} {
		e := NewEngine()
		trace := buildChatter(e, 42)
		var end Cycle
		slices := 0
		for {
			var st RunStatus
			end, st = e.RunUntil(e.Now() + budget)
			if st == RunStopped {
				break
			}
			if st != RunBudget {
				t.Fatalf("budget %d: status %d, want RunBudget", budget, st)
			}
			slices++
			if slices > 100_000 {
				t.Fatalf("budget %d: no progress", budget)
			}
		}
		if end != refEnd {
			t.Fatalf("budget %d: stopped at %d, want %d", budget, end, refEnd)
		}
		if len(*trace) != len(*refTrace) {
			t.Fatalf("budget %d: %d ticks, want %d", budget, len(*trace), len(*refTrace))
		}
		for i := range *trace {
			if (*trace)[i] != (*refTrace)[i] {
				t.Fatalf("budget %d: trace diverges at %d: %d vs %d",
					budget, i, (*trace)[i], (*refTrace)[i])
			}
		}
	}
}

// TestRunUntilQuiescent covers the no-pending-work return and the
// DeadlockError packaging Run layers on top of it.
func TestRunUntilQuiescent(t *testing.T) {
	e := NewEngine()
	e.Register(&recorder{name: "a", plan: []Cycle{10, Never}})
	end, st := e.RunUntil(Never)
	if st != RunQuiescent {
		t.Fatalf("status %d, want RunQuiescent", st)
	}
	if end != 10 {
		t.Fatalf("quiescent at %d, want 10", end)
	}
	err := e.DeadlockError()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) || dl.At != 10 {
		t.Fatalf("DeadlockError = %v, want deadlock at 10", err)
	}
	if len(dl.Dumps) != 1 || dl.Dumps[0] != "a: recorder" {
		t.Fatalf("dumps = %v", dl.Dumps)
	}
}

// TestRunUntilBudgetLandsOnNextEvent checks the advertised boundary
// semantics: on RunBudget the clock sits on the first out-of-budget
// event, not on the budget cycle itself.
func TestRunUntilBudgetLandsOnNextEvent(t *testing.T) {
	e := NewEngine()
	e.Register(&recorder{name: "a", plan: []Cycle{100, 5000, Never}})
	end, st := e.RunUntil(50)
	if st != RunBudget || end != 100 {
		t.Fatalf("got (%d, %d), want (100, RunBudget)", end, st)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
	// Resuming past the boundary runs the pending event exactly once.
	end, st = e.RunUntil(101)
	if st != RunBudget || end != 5000 {
		t.Fatalf("resume: got (%d, %d), want (5000, RunBudget)", end, st)
	}
}

// TestSliceEnd: inside RunUntil the slice end is the call's bound (Never
// for an unbounded run), outside it is the clock.
func TestSliceEnd(t *testing.T) {
	e := NewEngine()
	var seen []Cycle
	a := &recorder{name: "a", plan: []Cycle{10, 20, Never}}
	a.onRun = func(Cycle) { seen = append(seen, e.SliceEnd()) }
	e.Register(a)
	if got := e.SliceEnd(); got != 0 {
		t.Fatalf("SliceEnd before any run = %d, want the clock, 0", got)
	}
	if end, st := e.RunUntil(15); st != RunBudget || end != 20 {
		t.Fatalf("RunUntil(15) = (%d, %d), want (20, RunBudget)", end, st)
	}
	if got := e.SliceEnd(); got != 20 {
		t.Fatalf("SliceEnd after the slice = %d, want the clock, 20", got)
	}
	if _, st := e.RunUntil(Never); st != RunQuiescent {
		t.Fatalf("RunUntil(Never) status %d, want RunQuiescent", st)
	}
	if want := []Cycle{15, 15, Never}; !slices.Equal(seen, want) {
		t.Fatalf("SliceEnd inside the ticks = %v, want %v", seen, want)
	}
	if got := e.SliceEnd(); got != 20 {
		t.Fatalf("SliceEnd after the run = %d, want the clock, 20", got)
	}
}

// TestPassed: the engine has passed a component's turn on a cycle once
// the clock is beyond it, or on that cycle once it ticks (or, between
// runs, last ticked) that component or one after it — at a Stop, at a
// slice boundary, after the run.
func TestPassed(t *testing.T) {
	e := NewEngine()
	type ask struct {
		id int32
		at Cycle
	}
	check := func(when string, want map[ask]bool) {
		t.Helper()
		for q, w := range want {
			if got := e.Passed(q.id, q.at); got != w {
				t.Errorf("%s: Passed(%d, %d) = %v, want %v", when, q.id, q.at, got, w)
			}
		}
	}
	a := &recorder{name: "a", plan: []Cycle{5, 12, Never}}
	b := &recorder{name: "b", plan: []Cycle{5, Never}}
	b.onRun = func(now Cycle) {
		if now == 5 {
			check("inside b's tick", map[ask]bool{{0, 5}: true, {1, 5}: true, {2, 5}: false, {2, 4}: true, {0, 6}: false})
			e.Stop()
		}
	}
	c := &recorder{name: "c", plan: []Cycle{5, Never}}
	for _, r := range []*recorder{a, b, c} {
		e.Register(r)
	}
	check("before the run", map[ask]bool{{0, 0}: false, {2, 0}: false})
	if end, st := e.RunUntil(Never); st != RunStopped || end != 5 {
		t.Fatalf("RunUntil = (%d, %d), want (5, RunStopped)", end, st)
	}
	check("stopped by b", map[ask]bool{{1, 5}: true, {2, 5}: false, {2, 4}: true})
	e.Resume()
	if end, st := e.RunUntil(10); st != RunBudget || end != 12 {
		t.Fatalf("RunUntil(10) = (%d, %d), want (12, RunBudget)", end, st)
	}
	check("at the boundary", map[ask]bool{{0, 12}: false, {2, 11}: true})
	if _, st := e.RunUntil(Never); st != RunQuiescent {
		t.Fatalf("status %d, want RunQuiescent", st)
	}
	check("after the run", map[ask]bool{{0, 12}: true, {2, 12}: false, {0, 13}: false})
}

// TestRunUntilDegenerate covers bounds at or before the clock and the
// stopped return value.
func TestRunUntilDegenerate(t *testing.T) {
	e := NewEngine()
	stopper := &recorder{name: "stop", plan: []Cycle{7}}
	stopper.onRun = func(now Cycle) {
		if now >= 7 {
			e.Stop()
		}
	}
	e.Register(stopper)

	if end, st := e.RunUntil(0); st != RunBudget || end != 0 {
		t.Fatalf("RunUntil(0) = (%d, %d), want (0, RunBudget)", end, st)
	}
	if end, st := e.RunUntil(-5); st != RunBudget || end != 0 {
		t.Fatalf("RunUntil(-5) = (%d, %d), want (0, RunBudget)", end, st)
	}
	if len(stopper.runs) != 0 {
		t.Fatalf("ticked at %v under a bound at the clock", stopper.runs)
	}
	end, st := e.RunUntil(Never)
	if st != RunStopped || end != 7 {
		t.Fatalf("RunUntil(Never) = (%d, %d), want (7, RunStopped)", end, st)
	}
}
