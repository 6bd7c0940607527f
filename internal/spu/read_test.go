package spu_test

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/spu"
	"repro/internal/stats"
)

// The READ response in hand. The SPU is a timed endpoint of the
// interconnect: memory's response reaches it when memory sends it,
// stamped with its delivery cycle `at`, and a tick at or after `at`
// applies it (SPU.DeliverAt, SPU.Tick). Between the two the SPU can be
// ticked for unrelated reasons — its LSE's OnWork is wired to SPU.Wake —
// and these tests inject exactly such wakes into a one-SPE machine and
// hold the prodded run against an unprodded reference. The
// all-workload pins (TestPaperSizeCyclePins) catch a wrong rule only
// where a workload happens to hit the case; here each case is forced.

// readMachine builds a one-SPE machine whose root thread runs
// `READ r1 <- [0x100000]` followed by after(ex), and posts r1.
func readMachine(t *testing.T, after func(ex *program.Asm)) (*cell.Machine, *spu.SPU) {
	t.Helper()
	b := program.NewBuilder("readtest")
	root := b.Template("root")
	root.PL().Load(program.R(9), 0)
	ex := root.EX()
	ex.Movi(program.R(2), 0x100000)
	ex.Read(program.R(1), program.R(2), 0)
	after(ex)
	root.PS().
		StoreMailbox(program.R(1), program.R(99), 0).
		Ffree().
		Stop()
	b.Entry(root, 7)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := cell.New(oneSPE(), p)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.SPEs()[0].SPU
}

// held reports whether the SPU has a response in hand (one whose
// delivery cycle is beyond cycle 0, that is: any).
func held(pipe *spu.SPU) bool { return pipe.Undelivered(0) == 1 }

// responseCycles runs a reference machine pass by pass and returns the
// cycle memory sends the READ response (the hand-over), the response's
// delivery cycle, and the finished run.
func responseCycles(t *testing.T, after func(ex *program.Asm)) (send, at sim.Cycle, res *cell.Result) {
	t.Helper()
	m, pipe := readMachine(t, after)
	for !held(pipe) {
		send = m.Now()
		if st, err := m.StepUntil(m.Now() + 1); err != nil || st == cell.StepDone {
			t.Fatalf("reference run ended before a READ response was sent: %v", err)
		}
	}
	for at = send; pipe.Undelivered(at) == 1; at++ {
	}
	if at < send+noc.DefaultConfig().MinDeliveryLatency() {
		t.Fatalf("response sent at %d is delivered at %d: sooner than the interconnect allows", send, at)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return send, at, res
}

// spuTicks returns spu0's engine tick count.
func spuTicks(m *cell.Machine) int64 {
	for _, c := range m.ComponentTicks() {
		if c.Name == "spu0" {
			return c.Ticks
		}
	}
	return -1
}

// independentThenDependent is the code after the READ in the resumption
// tests: one instruction that does not read r1, then one that does.
func independentThenDependent(ex *program.Asm) {
	ex.Addi(program.R(3), program.R(2), 1)
	ex.Addi(program.R(4), program.R(1), 1)
}

// (a) A wake between the response's send and its delivery neither
// resumes the pipeline nor loses the response. The wake is posted before
// memory's send pass, so the at+1 wake DeliverAt asks for merges into it
// and is gone once the stray tick has run: only that tick's return value
// keeps the SPU scheduled.
func TestStrayWakeBeforeDeliveryKeepsResponse(t *testing.T) {
	send, at, ref := responseCycles(t, independentThenDependent)
	for _, wake := range []sim.Cycle{send + 1, at - 1} {
		m, pipe := readMachine(t, independentThenDependent)
		if _, err := m.StepUntil(send); err != nil || m.Now() != send {
			t.Fatalf("StepUntil(%d) stopped at %d: %v", send, m.Now(), err)
		}
		pipe.Wake(wake)
		before := spuTicks(m)
		if _, err := m.StepUntil(wake + 1); err != nil {
			t.Fatal(err)
		}
		if got := spuTicks(m) - before; got != 1 {
			t.Fatalf("wake at %d: the SPU was ticked %d times up to that cycle, want 1 (the stray wake)", wake, got)
		}
		if pipe.Undelivered(wake) != 1 {
			t.Fatalf("wake at %d: the response (delivery at %d) is no longer in hand", wake, at)
		}
		if !strings.Contains(pipe.DumpState(), "read-response at") {
			t.Fatalf("wake at %d: DumpState does not show the response in hand: %s", wake, pipe.DumpState())
		}
		if got := m.NextEvent(); got != at+1 {
			t.Fatalf("wake at %d: next event at %d, want the SPU re-armed for %d", wake, got, at+1)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("wake at %d: %v", wake, err)
		}
		if res.Cycles != ref.Cycles || res.SPUs[0] != ref.SPUs[0] || res.Tokens[0] != ref.Tokens[0] {
			t.Fatalf("wake at %d changed the run:\n got %d cycles %+v\nwant %d cycles %+v",
				wake, res.Cycles, res.SPUs[0], ref.Cycles, ref.SPUs[0])
		}
	}
}

// (b) A wake in the delivery cycle resumes the pipeline in that cycle:
// the response was delivered first thing on it. The value is ready the
// cycle after, so an instruction that does not read the destination
// issues a cycle earlier than in the reference run and one that does
// waits out the delivery cycle as a dependency stall.
func TestWakeInDeliveryCycleResumesThere(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after func(ex *program.Asm)
		saved sim.Cycle // cycles the run ends earlier than the reference
		stall int64     // dependency-stall cycles more than the reference
	}{
		// The independent ADDI issues at `at`, the dependent one at at+1
		// (the reference: at+1 and at+2).
		{"independent first", independentThenDependent, 1, 0},
		// The dependent ADDI is looked at on `at`, stalls, and issues at
		// at+1 like in the reference.
		{"dependent first", func(ex *program.Asm) { ex.Addi(program.R(4), program.R(1), 1) }, 0, 1},
	} {
		send, at, ref := responseCycles(t, tc.after)
		m, pipe := readMachine(t, tc.after)
		if _, err := m.StepUntil(send); err != nil {
			t.Fatal(err)
		}
		pipe.Wake(at)
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := res.SPUs[0], ref.SPUs[0]
		if res.Cycles != ref.Cycles-tc.saved {
			t.Errorf("%s: %d cycles, want %d (reference %d)", tc.name, res.Cycles, ref.Cycles-tc.saved, ref.Cycles)
		}
		if g, w := got.Causes[stats.CauseBlockingRead], want.Causes[stats.CauseBlockingRead]-1; g != w {
			t.Errorf("%s: %d blocking-READ cycles, want %d: the delivery cycle belongs to the resumed pipeline", tc.name, g, w)
		}
		if g, w := got.Causes[stats.CauseDepStall], want.Causes[stats.CauseDepStall]+tc.stall; g != w {
			t.Errorf("%s: %d dependency-stall cycles, want %d", tc.name, g, w)
		}
		if got.Instr != want.Instr || res.Tokens[0] != ref.Tokens[0] {
			t.Errorf("%s: instruction mix or result changed: %+v token %d, reference %+v token %d",
				tc.name, got.Instr, res.Tokens[0], want.Instr, ref.Tokens[0])
		}
	}
}

// (c) A response the SPU is not waiting for is a machine bug and faults
// with the message it always had — at the hand-over now, not at the
// delivery cycle — and leaves a response already in hand alone.
func TestUnexpectedReadResponseFaults(t *testing.T) {
	resp := noc.Message{Src: 99, Dst: 2, Kind: noc.KindMemReadResp, B: 5}
	nop := func(*program.Asm) {}

	m, pipe := readMachine(t, nop)
	var fault error
	pipe.Fault = func(err error) { fault = err }
	pipe.DeliverAt(50, 1, resp)
	if fault == nil || !strings.Contains(fault.Error(), "spu0: unexpected mem-read-resp") ||
		!strings.Contains(fault.Error(), "in phase 0") {
		t.Fatalf("response with no READ outstanding: fault = %v", fault)
	}
	if held(pipe) {
		t.Fatal("the idle SPU kept the response")
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("the run after the refused response: %v", err)
	}

	send, at, ref := responseCycles(t, nop)
	m, pipe = readMachine(t, nop)
	fault = nil
	pipe.Fault = func(err error) { fault = err }
	if _, err := m.StepUntil(send + 1); err != nil || !held(pipe) || fault != nil {
		t.Fatalf("no response in hand after cycle %d: err %v, fault %v", send, err, fault)
	}
	pipe.DeliverAt(at+3, 1<<40, resp)
	if fault == nil || !strings.Contains(fault.Error(), "spu0: unexpected mem-read-resp") ||
		!strings.Contains(fault.Error(), "in phase 2") {
		t.Fatalf("second response: fault = %v", fault)
	}
	if pipe.Undelivered(at-1) != 1 || pipe.Undelivered(at) != 0 {
		t.Fatalf("the second response displaced the first (delivery at %d)", at)
	}
	res, err := m.Run()
	if err != nil || res.Cycles != ref.Cycles || res.Tokens[0] != ref.Tokens[0] {
		t.Fatalf("run after the refused second response: %v, %d cycles token %d, want %d cycles token %d",
			err, res.Cycles, res.Tokens[0], ref.Cycles, ref.Tokens[0])
	}

	// Another kind, even while a READ is outstanding and nothing is in hand.
	m, pipe = readMachine(t, nop)
	fault = nil
	pipe.Fault = func(err error) { fault = err }
	if _, err := m.StepUntil(send); err != nil || held(pipe) {
		t.Fatalf("StepUntil(%d): err %v, response in hand %v", send, err, held(pipe))
	}
	pipe.DeliverAt(at, 1, noc.Message{Src: 99, Dst: 2, Kind: noc.KindMemBlockAck})
	if fault == nil || !strings.Contains(fault.Error(), "spu0: unexpected mem-block-ack") {
		t.Fatalf("a block ack: fault = %v", fault)
	}
}
