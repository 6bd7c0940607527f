package sim

import (
	"slices"
	"testing"

	"repro/internal/snap"
)

// refEngine is the scheduler the engine's deterministic contract is
// stated against: an array of next cycles swept in registration order,
// with another sweep over the same cycle while anything is still due on
// it. A wake for the current cycle lands in next[] and is picked up by
// the running sweep if the target comes later in it, by the next sweep
// otherwise; a Stop leaves the rest of the cycle to the next Run.
type refEngine struct {
	comps    []Component
	next     []Cycle
	clock    Cycle
	ticking  int32
	selfWake Cycle
	stopped  bool
	stopAt   Cycle
}

func (r *refEngine) wake(i int32, at Cycle) {
	at = max(at, r.clock)
	if i == r.ticking {
		r.selfWake = min(r.selfWake, at)
		return
	}
	r.next[i] = min(r.next[i], at)
}

func (r *refEngine) runUntil(until Cycle) (Cycle, RunStatus) {
	for !r.stopped {
		first := slices.Min(r.next)
		if first == Never {
			return r.clock, RunQuiescent
		}
		r.clock = max(r.clock, first)
		if r.clock >= until {
			return r.clock, RunBudget
		}
		for i := range r.next {
			if r.next[i] > r.clock {
				continue
			}
			r.ticking, r.selfWake = int32(i), Never
			nxt := min(r.comps[i].Tick(r.clock), r.selfWake)
			r.ticking = notQueued
			if nxt != Never {
				nxt = max(nxt, r.clock+1)
			}
			r.next[i] = nxt
			if r.stopped {
				break
			}
		}
	}
	return r.stopAt, RunStopped
}

func (r *refEngine) horizonExcluding(id int32) Cycle {
	h := Never
	for j, at := range r.next {
		if int32(j) != id {
			h = min(h, at)
		}
	}
	return h
}

func (r *refEngine) nextScheduled(id int32) Cycle { return r.next[id] }
func (r *refEngine) stop()                        { r.stopped, r.stopAt = true, r.clock }
func (r *refEngine) resume()                      { r.stopped = false }
func (r *refEngine) now() Cycle                   { return r.clock }
func (r *refEngine) checkpoint()                  {}

// scheduler is what the random machines below drive: the Engine (through
// engineSide) or the reference model.
type scheduler interface {
	wake(id int32, at Cycle)
	runUntil(until Cycle) (Cycle, RunStatus)
	stop()
	resume()
	now() Cycle
	horizonExcluding(id int32) Cycle
	nextScheduled(id int32) Cycle
	checkpoint()
}

type engineSide struct {
	t  *testing.T
	e  *Engine
	hs []*Handle
}

func (s *engineSide) wake(id int32, at Cycle)                 { s.hs[id].Wake(at) }
func (s *engineSide) runUntil(until Cycle) (Cycle, RunStatus) { return s.e.RunUntil(until) }
func (s *engineSide) stop()                                   { s.e.Stop() }
func (s *engineSide) resume()                                 { s.e.Resume() }
func (s *engineSide) now() Cycle                              { return s.e.Now() }
func (s *engineSide) horizonExcluding(id int32) Cycle         { return s.e.HorizonExcluding(id) }
func (s *engineSide) nextScheduled(id int32) Cycle            { return s.e.NextScheduled(id) }

// checkpoint round-trips the schedule through a snapshot: between Runs
// the (component, due cycle) multiset must be the whole state.
func (s *engineSide) checkpoint() {
	var w snap.Writer
	if err := s.e.Snapshot(&w); err != nil {
		s.t.Fatalf("Snapshot: %v", err)
	}
	if err := s.e.Restore(snap.NewReader(w.Bytes())); err != nil {
		s.t.Fatalf("Restore: %v", err)
	}
}

// Log records. A tick logs its cycle, the ticking id, its horizon and
// every component's NextScheduled; a Run return logs its cycle and
// status.
const (
	logTick Cycle = -1 - iota
	logRun
)

// script is the random machine's behaviour. Both sides draw from their
// own copy of the same seeded stream, so they stay in step exactly as
// long as they tick the same components on the same cycles.
type script struct {
	rng   *Rand
	n     int
	s     scheduler
	log   []Cycle
	ticks int
}

type scripted struct {
	id int32
	sc *script
}

func (c *scripted) Name() string         { return "scripted" }
func (c *scripted) Tick(now Cycle) Cycle { return c.sc.tick(c.id, now) }

// near is a cycle in the past, on now, or shortly after it — close
// enough that wakes and re-ticks keep colliding on shared cycles.
func (sc *script) near(now Cycle) Cycle {
	if sc.rng.Intn(8) == 0 {
		return now + Cycle(sc.rng.Intn(100))
	}
	return now + Cycle(sc.rng.Intn(9)) - 3
}

func (sc *script) tick(id int32, now Cycle) Cycle {
	sc.log = append(sc.log, logTick, now, Cycle(id), sc.s.horizonExcluding(id))
	for j := 0; j < sc.n; j++ {
		sc.log = append(sc.log, sc.s.nextScheduled(int32(j)))
	}
	for k := sc.rng.Intn(4); k > 0; k-- {
		sc.s.wake(int32(sc.rng.Intn(sc.n)), sc.near(now)) // lower, higher or self
	}
	sc.ticks++
	if sc.rng.Intn(30) == 0 || sc.ticks%1000 == 0 {
		sc.s.stop()
	}
	if sc.rng.Intn(4) == 0 {
		return Never
	}
	return sc.near(now) // past, current or future
}

// driveScheduler runs one random machine of 1-40 components through
// random RunUntil slices, Stops, outside wakes and Resumes, and returns
// its log.
func driveScheduler(seed uint64, build func(sc *script) scheduler) []Cycle {
	rng := NewRand(seed)
	sc := &script{rng: rng, n: 1 + rng.Intn(40)}
	s := build(sc)
	sc.s = s
	for step := 0; step < 40; step++ {
		until := Never
		if rng.Intn(4) != 0 {
			until = s.now() + Cycle(rng.Intn(24)) - 4
		}
		end, st := s.runUntil(until)
		sc.log = append(sc.log, logRun, end, Cycle(st))
		if st == RunBudget && rng.Intn(2) == 0 {
			s.checkpoint()
		}
		if st != RunBudget || rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				s.wake(int32(rng.Intn(sc.n)), sc.near(s.now()))
			}
		}
		if st == RunStopped {
			s.resume()
		}
	}
	return sc.log
}

// TestEngineMatchesLinearScan holds the heap scheduler to refEngine on
// random machines: the (cycle, id) tick log, every RunUntil return, and
// at every Tick the ticking component's HorizonExcluding and every
// component's NextScheduled.
func TestEngineMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		got := driveScheduler(seed, func(sc *script) scheduler {
			es := &engineSide{t: t, e: NewEngine()}
			for i := 0; i < sc.n; i++ {
				es.hs = append(es.hs, es.e.Register(&scripted{id: int32(i), sc: sc}))
			}
			return es
		})
		want := driveScheduler(seed, func(sc *script) scheduler {
			r := &refEngine{ticking: notQueued}
			for i := 0; i < sc.n; i++ {
				r.comps = append(r.comps, &scripted{id: int32(i), sc: sc})
				r.next = append(r.next, 0)
			}
			return r
		})
		if i := firstDiff(got, want); i >= 0 {
			lo := max(0, i-8)
			t.Fatalf("seed %d: logs diverge at %d (%d vs %d entries)\nengine %v\nmodel  %v",
				seed, i, len(got), len(want), got[lo:min(i+8, len(got))], want[lo:min(i+8, len(want))])
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []Cycle) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
