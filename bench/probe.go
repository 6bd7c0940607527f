package main

import (
	"container/heap"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe. The box this benchmark runs on is a few processors of
// a shared host, and what the neighbours do changes how fast it executes
// the same instructions: by 10-30% for minutes at a time, and by up to
// 70% for seconds. Timing the program alone then measures the
// neighbours. So the benchmark times, every probeEvery of measured work,
// a fixed amount of work of its own — the probe — and reports every host
// time in **calibrated seconds**: the time measured, divided by how much
// slower than probeRef the probes on either side of it ran. On a quiet
// box of the kind the first numbers were taken on, a calibrated second is
// a second.
//
// The probe is a small discrete-event loop: an event heap behind
// container/heap's interface, a switch per event, random
// read-modify-writes over 512 KiB. That is what the simulator is made
// of, and the size is the one at which the probe slowed in the same
// proportion as the simulator when the box was disturbed (what disturbs
// it is mostly cache pollution: a tight arithmetic loop hardly slows, a
// 256 KiB probe slows less than the simulator and a 1 MiB one more;
// README.md, "Calibrated time"). The probe shares no code with the
// program under test, so no change to the program moves it. Its state
// carries over from one probe to the next — resetting it would load its
// memory into the cache just before timing it.
const (
	probeWords  = 64 << 10 // 512 KiB of uint64
	probeEvents = 48
	probeSteps  = 50_000
	// probeRef is what one probe takes on a quiet box of the kind the
	// first numbers were taken on. It only fixes the unit.
	probeRef = 4350 * time.Microsecond
	// probeEvery is how much measured work may pass between two probes.
	probeEvery = 50 * time.Millisecond
)

type probeEvent struct {
	at   uint64
	kind int
}

type probeQueue []probeEvent

func (q probeQueue) Len() int           { return len(q) }
func (q probeQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q probeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *probeQueue) Push(x any)        { *q = append(*q, x.(probeEvent)) }
func (q *probeQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// probeKernel is the probe's state.
type probeKernel struct {
	mem []uint64
	q   probeQueue
	x   uint64 // xorshift state
}

func newProbeKernel() *probeKernel {
	p := &probeKernel{mem: make([]uint64, probeWords), x: 88172645463325252}
	for i := 0; i < probeEvents; i++ {
		p.q = append(p.q, probeEvent{at: uint64(i), kind: i})
	}
	heap.Init(&p.q)
	return p
}

// run does one probe's work: probeSteps events.
func (p *probeKernel) run() {
	x := p.x
	const mask = probeWords - 1
	for i := 0; i < probeSteps; i++ {
		e := p.q[0]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := x & mask
		switch e.kind & 3 {
		case 0:
			p.mem[a] += e.at
			e.at += 1 + p.mem[a]&63
		case 1:
			e.at += 3 + p.mem[a]&15
		case 2:
			p.mem[a] ^= x
			e.at += 150
		default:
			if p.mem[a]&1 == 0 {
				e.at += 7
			} else {
				e.at += 2
				p.mem[(a+64)&mask]++
			}
		}
		p.q[0] = e
		heap.Fix(&p.q, 0)
	}
	p.x = x
}

// cpuClock reads one of the kernel's CPU-time clocks, which count in
// nanoseconds (getrusage counts a thread's time in scheduler ticks).
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time the process has used, on all its threads:
// collector and server goroutines included.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// clocks is one reading, or one difference, of the two clocks the
// benchmark times with.
type clocks struct{ wall, cpu time.Duration }

// speedMeter times stretches of work between probes. begin and end
// bracket what is measured (the set-up, or one pass); probe and
// probeIfDue go between two operations of it. A stretch counts for
// stretch × probeRef / (mean of the probe before and the probe after).
type speedMeter struct {
	kernel *probeKernel

	probes    []clocks // len(stretches)+1 of them once end has run
	stretches []clocks
	start     time.Time // of the open stretch
	startCPU  time.Duration
}

func newSpeedMeter() *speedMeter {
	m := &speedMeter{kernel: newProbeKernel()}
	m.kernel.run() // faults the probe's memory in
	return m
}

// sample runs one probe on a thread of its own (so that its CPU time is
// its own, whatever the collector does meanwhile).
func (m *speedMeter) sample() clocks {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, t0 := threadCPU(), time.Now()
	m.kernel.run()
	c := clocks{wall: time.Since(t0), cpu: threadCPU() - cpu0}
	if c.cpu <= 0 { // no per-thread accounting here: the wall clock has to do
		c.cpu = c.wall
	}
	return c
}

// passTimes is what the meter reports for what begin and end bracketed:
// the time as measured (probes left out) and in calibrated seconds.
type passTimes struct {
	raw, calibrated clocks
	probeMS         float64 // mean probe wall time, in ms: how slow the box ran
}

// calibrate turns the stretches into passTimes.
func (m *speedMeter) calibrate() passTimes {
	var t passTimes
	var wall, cpu float64
	for i, s := range m.stretches {
		before, after := m.probes[i], m.probes[i+1]
		t.raw.wall += s.wall
		t.raw.cpu += s.cpu
		wall += float64(s.wall) * 2 * float64(probeRef) / float64(before.wall+after.wall)
		cpu += float64(s.cpu) * 2 * float64(probeRef) / float64(before.cpu+after.cpu)
	}
	t.calibrated = clocks{wall: time.Duration(wall), cpu: time.Duration(cpu)}
	for _, p := range m.probes {
		t.probeMS += p.wall.Seconds() * 1e3 / float64(len(m.probes))
	}
	return t
}
