package mem

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snap"
)

// refMemory is the memory as it was before it serviced READs at
// hand-over, kept as the reference model: every request joins the
// inbox, the wake for the cycle after its delivery merges with whatever
// the memory was due for anyway, and a tick services everything
// delivered by then. It shares the store, the queues and service with
// Memory and owns the rule the two differ in — when a service happens:
// DeliverAt, Tick, Undelivered and Stats.
type refMemory struct{ *Memory }

func (r refMemory) DeliverAt(at sim.Cycle, seq int64, msg noc.Message) {
	r.inbox.Push(at, seq, msg)
	r.handle.Wake(at + 1)
}

func (r refMemory) Undelivered(now sim.Cycle) int {
	k := 0
	for at := range r.inbox.All() {
		if at > now {
			k++
		}
	}
	return k
}

func (r refMemory) Stats() Stats { return r.stats }

func (r refMemory) Tick(now sim.Cycle) sim.Cycle {
	for r.inbox.Due(now) {
		slot, req := r.inbox.Pop()
		r.service(now, req)
		r.inbox.Release(slot)
	}
	for r.out.Due(now) {
		slot, resp := r.out.Pop()
		r.net.Send(now, *resp)
		r.out.Release(slot)
	}
	next := r.out.Earliest()
	if r.inbox.Len() > 0 {
		next = min(next, r.inbox.Earliest()+1)
	}
	return next
}

// memModel is what the differential drives: Memory or refMemory.
type memModel interface {
	sim.Component
	noc.Endpoint
	Stats() Stats
}

const (
	diffMemEP = 0    // the memory's endpoint; sources are 1..n
	diffSpan  = 4096 // bytes the requests address
)

// diffParams is one random machine of the differential, built twice.
type diffParams struct {
	seed      uint64
	mem       Config
	net       noc.Config
	sources   int
	reads     []int       // percent of source i's requests that are READs in range
	block     []int       // percent of its READs source i waits for
	gap       []int       // source i sends every 1..gap cycles
	stopEarly bool        // the stopper ticks before the memory, else last
	stops     []sim.Cycle // cycles the stopper calls Stop on
	sendUntil sim.Cycle   // no source sends from this cycle on
}

// memSide is one engine, network, memory model, its sources and a
// stopper, with the log of every response the sources received and of
// every fault.
type memSide struct {
	e      *sim.Engine
	net    *noc.Network
	mem    *Memory
	model  memModel
	memID  int32
	srcs   []*memSource
	log    []string
	faults []string
	p      *diffParams

	handedOver int64 // requests Memory did not put in its inbox
}

// handOverCounter is Memory, counting the requests it services at
// hand-over.
type handOverCounter struct {
	*Memory
	n *int64
}

func (c handOverCounter) DeliverAt(at sim.Cycle, seq int64, msg noc.Message) {
	k := c.inbox.Len()
	c.Memory.DeliverAt(at, seq, msg)
	if c.inbox.Len() == k {
		*c.n++
	}
}

func newMemSide(p *diffParams, ref bool) *memSide {
	s := &memSide{e: sim.NewEngine(), net: noc.New(p.net), p: p}
	stopper := &memStopper{e: s.e, at: p.stops}
	if p.stopEarly {
		s.e.Register(stopper)
	}
	s.mem = New(p.mem, diffMemEP, s.net)
	s.model = handOverCounter{s.mem, &s.handedOver}
	if ref {
		s.model = refMemory{s.mem}
	}
	h := s.e.Register(s.model)
	s.mem.Attach(h)
	s.memID = h.ID()
	s.net.Register(diffMemEP, s.model)
	s.mem.Fault = func(err error) { s.faults = append(s.faults, fmt.Sprintf("%d: %v", s.e.Now(), err)) }
	for i := 0; i < p.sources; i++ {
		src := &memSource{side: s, id: int32(1 + i), rng: sim.NewRand(p.seed<<8 | uint64(i)),
			reads: p.reads[i], block: p.block[i], gap: p.gap[i]}
		src.h = s.e.Register(src)
		s.net.Register(int(src.id), src)
		s.srcs = append(s.srcs, src)
	}
	if !p.stopEarly {
		s.e.Register(stopper)
	}
	return s
}

// memSource sends a random mix of requests and logs the responses. A
// READ it waits for stops it until the response arrives; it sends again
// 0-2 cycles after.
type memSource struct {
	side    *memSide
	id      int32
	h       *sim.Handle
	rng     *sim.Rand
	reads   int // percent of its requests that are READs in range
	block   int
	gap     int
	tag     int64
	waiting bool
	handed  []sim.Cycle // delivery cycles of the responses handed over
}

func (s *memSource) Name() string { return fmt.Sprintf("source%d", s.id) }

func (s *memSource) Tick(now sim.Cycle) sim.Cycle {
	if s.waiting || now >= s.side.p.sendUntil {
		return sim.Never
	}
	s.send(now)
	if s.waiting {
		return sim.Never
	}
	return now + 1 + sim.Cycle(s.rng.Intn(s.gap))
}

func (s *memSource) send(now sim.Cycle) {
	net := s.side.net
	s.tag++
	addr := int64(s.rng.Intn(diffSpan))
	wide := s.rng.Intn(2) == 0
	m := noc.Message{Src: s.id, Dst: diffMemEP, C: s.tag}
	switch k := s.rng.Intn(100); {
	case k < 1: // out of range: faults on its service tick, never answered
		m.Kind, m.A = noc.KindMemRead32, -4
	case k < 1+s.reads:
		m.Kind, m.A = noc.KindMemRead32, addr&^3
		if wide {
			m.Kind, m.A = noc.KindMemRead64, addr&^7
		}
		s.waiting = s.rng.Intn(100) < s.block
	case k%4 < 2:
		m.Kind, m.A, m.B = noc.KindMemWrite32, addr&^3, int64(s.rng.Uint32())
		if wide {
			m.Kind, m.A, m.B = noc.KindMemWrite64, addr&^7, int64(s.rng.Uint64())
		}
	case k%4 == 2:
		m.Kind, m.A, m.B = noc.KindMemBlockRead, addr&^15, int64(1+s.rng.Intn(300))
	default: // a PUT, in packets of up to 128 bytes
		total := 1 + s.rng.Intn(300)
		for off := 0; off < total; off += 128 {
			p := m
			p.Kind, p.A, p.D = noc.KindMemBlockWrite, addr+int64(off), int64(off)
			p.Data = net.GetBuf(min(128, total-off))
			for j := range p.Data {
				p.Data[j] = byte(s.rng.Uint32())
			}
			if off+128 >= total {
				p.B = 1
			}
			net.Send(now, p)
		}
		return
	}
	net.Send(now, m)
}

// receive logs a response delivered at cycle at.
func (s *memSource) receive(at sim.Cycle, m noc.Message) {
	s.side.log = append(s.side.log, fmt.Sprintf("%d to %d: %s B=%d pad=%d data=%x", at, s.id, m, m.B, m.Pad, m.Data))
	s.side.net.PutBuf(m.Data)
	if s.waiting && m.Kind == noc.KindMemReadResp && m.C == s.tag {
		s.waiting = false
		s.h.Wake(at + sim.Cycle(s.rng.Intn(3)))
	}
}

func (s *memSource) DeliverAt(at sim.Cycle, _ int64, m noc.Message) {
	s.handed = append(s.handed, at)
	s.receive(at, m)
}

func (s *memSource) Undelivered(now sim.Cycle) int {
	k := 0
	for _, at := range s.handed {
		if at > now {
			k++
		}
	}
	return k
}

// memStopper calls Stop on each of its cycles.
type memStopper struct {
	e  *sim.Engine
	at []sim.Cycle
}

func (s *memStopper) Name() string { return "stopper" }

func (s *memStopper) Tick(now sim.Cycle) sim.Cycle {
	for len(s.at) > 0 && s.at[0] <= now {
		if s.at[0] == now {
			s.e.Stop()
		}
		s.at = s.at[1:]
	}
	if len(s.at) == 0 {
		return sim.Never
	}
	return s.at[0]
}

// randomDiffParams draws one machine: 1-8 sources, latency in {0, 1, 2,
// 10, 150}, 1-3 ports, 1-4 buses, 0-4 hops.
func randomDiffParams(seed uint64) *diffParams {
	rng := sim.NewRand(seed)
	p := &diffParams{
		seed: seed,
		mem: Config{SizeBytes: 1 << 20, Latency: diffLatencies[rng.Intn(len(diffLatencies))],
			Ports: 1 + rng.Intn(3), PortWidth: 32, PacketBytes: 128},
		net:       noc.Config{Buses: 1 + rng.Intn(4), BytesPerCyc: 8, HopLatency: rng.Intn(5)},
		sources:   1 + rng.Intn(8),
		stopEarly: rng.Intn(2) == 0,
		sendUntil: sim.Cycle(300 + rng.Intn(1200)),
	}
	for i := 0; i < p.sources; i++ {
		p.reads = append(p.reads, []int{50, 90, 99}[rng.Intn(3)])
		p.block = append(p.block, []int{0, 50, 90, 100}[rng.Intn(4)])
		p.gap = append(p.gap, 1+rng.Intn(20))
	}
	for at := sim.Cycle(0); ; {
		at += sim.Cycle(1 + rng.Intn(int(p.sendUntil)))
		if at >= p.sendUntil {
			break
		}
		p.stops = append(p.stops, at)
	}
	return p
}

var diffLatencies = []int{0, 1, 2, 10, 150}

// diffCounts says what a differential exercised.
type diffCounts struct {
	handedOver int64 // READs serviced at hand-over
	ticksSaved int64 // memory ticks the inbox-only model took and Memory did not
	hiddenAt   int   // stops at which Stats left out a READ serviced at hand-over
	stops      int
	responses  int
}

// runMemDiff drives one machine through Memory and refMemory in lockstep
// — the same RunUntil slices, a latency flip now and then between them,
// Resume after every stop — and fails on the first difference: the
// return of every RunUntil, then Stats, Undelivered, the network's
// statistics and the response and fault logs; at every slice boundary
// also the engine's schedule, the network's state and the memory's
// queues, ports and raw statistics; at the end the store. At some
// boundaries Memory is snapshot, given another run's hand-over state,
// and restored.
func runMemDiff(t *testing.T, p *diffParams, c *diffCounts) {
	t.Helper()
	a, b := newMemSide(p, false), newMemSide(p, true)
	rng := sim.NewRand(^p.seed)
	for slices := 0; ; slices++ {
		if slices > 100_000 {
			t.Fatalf("seed %d: no progress at cycle %d", p.seed, a.e.Now())
		}
		now := a.e.Now()
		until := now + sim.Cycle(1+rng.Intn(8)) // slice ends near MinDeliveryLatency
		switch rng.Intn(8) {
		case 0, 1:
			until = now + sim.Cycle(rng.Intn(200))
		case 2:
			until = now // runs nothing
		case 3, 4:
			until = sim.Never // to the next stop
		}
		if rng.Intn(6) == 0 {
			lat := diffLatencies[rng.Intn(len(diffLatencies))]
			a.mem.SetLatency(lat)
			b.mem.SetLatency(lat)
		}
		var st sim.RunStatus
		for {
			endA, stA := a.e.RunUntil(until)
			endB, stB := b.e.RunUntil(until)
			when := fmt.Sprintf("seed %d: RunUntil(%d) from %d", p.seed, until, now)
			if endA != endB || stA != stB {
				t.Fatalf("%s: returned (%d, %d), reference (%d, %d)", when, endA, stA, endB, stB)
			}
			compareMemSides(t, when, a, b)
			st = stA
			if st != sim.RunStopped {
				break
			}
			c.stops++
			if a.mem.stats != a.mem.Stats() {
				c.hiddenAt++
			}
			a.e.Resume() // the slice continues
			b.e.Resume()
		}
		if st == sim.RunQuiescent {
			break
		}
		when := fmt.Sprintf("seed %d: boundary at %d", p.seed, a.e.Now())
		compareMemBoundary(t, when, a, b)
		if rng.Intn(8) == 0 {
			restoreWithStaleHandOvers(t, when, a, a.e.Now()+a.mem.minLat+sim.Cycle(rng.Intn(3)))
		}
	}
	if !bytes.Equal(storeBytes(a.mem), storeBytes(b.mem)) {
		t.Fatalf("seed %d: final stores differ", p.seed)
	}
	c.responses += len(a.log)
	c.handedOver += a.handedOver
	c.ticksSaved += b.e.Ticks(b.memID) - a.e.Ticks(a.memID)
}

// compareMemSides compares what is comparable at any RunUntil return.
func compareMemSides(t *testing.T, when string, a, b *memSide) {
	t.Helper()
	now := a.e.Now()
	if got, want := a.model.Stats(), b.model.Stats(); got != want {
		t.Fatalf("%s: memory stats %+v, reference %+v", when, got, want)
	}
	if got, want := a.model.Undelivered(now), b.model.Undelivered(now); got != want {
		t.Fatalf("%s: %d requests undelivered at %d, reference %d", when, got, now, want)
	}
	if got, want := a.net.Stats(now), b.net.Stats(now); got != want {
		t.Fatalf("%s: network stats %+v, reference %+v", when, got, want)
	}
	for _, logs := range [][2][]string{{a.log, b.log}, {a.faults, b.faults}} {
		got, want := logs[0], logs[1]
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is %q, reference %q", when, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d log entries, reference %d", when, len(got), len(want))
		}
	}
}

// compareMemBoundary compares the state a snapshot at a slice boundary
// would hold, bar the store.
func compareMemBoundary(t *testing.T, when string, a, b *memSide) {
	t.Helper()
	wa, wb := snap.NewEncoder(), snap.NewEncoder()
	a.e.Walk(wa)
	b.e.Walk(wb)
	if err := cmp.Or(wa.Err(), wb.Err()); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if !bytes.Equal(wa.Payload(), wb.Payload()) {
		t.Fatalf("%s: engine schedules differ: memory next at %d, reference %d",
			when, a.e.NextScheduled(a.memID), b.e.NextScheduled(b.memID))
	}
	wa, wb = snap.NewEncoder(), snap.NewEncoder()
	a.net.Walk(wa, a.e.Now())
	b.net.Walk(wb, b.e.Now())
	if !bytes.Equal(wa.Payload(), wb.Payload()) {
		t.Fatalf("%s: network states differ", when)
	}
	if got, want := memQueues(a.mem), memQueues(b.mem); got != want {
		t.Fatalf("%s: memory queues, ports or statistics differ:\n%s\nreference\n%s", when, got, want)
	}
}

// memQueues renders everything Memory.Walk writes but the store, with
// each heap as its Walk writes it, in pop order: the two models push and
// pop their heaps in different orders, so they may hold the same entries
// in different layouts (which a restore does not see either).
func memQueues(m *Memory) string {
	var b strings.Builder
	for _, q := range []*noc.MsgHeap{&m.inbox, &m.out} {
		w := snap.NewEncoder()
		q.Walk(w)
		fmt.Fprintf(&b, "%x | ", w.Payload())
	}
	fmt.Fprintf(&b, "ports %v seq %d stats %+v", m.portFree, m.seq, m.stats)
	return b.String()
}

// restoreWithStaleHandOvers snapshots a side's memory, gives it the
// hand-over state of a run that went further — a READ serviced ahead
// for cycle stale, a delivery cycle still to come — and restores the
// snapshot, as a pooled machine restoring a blob does. The run must
// carry on as if nothing happened.
func restoreWithStaleHandOvers(t *testing.T, when string, s *memSide, stale sim.Cycle) {
	t.Helper()
	w := snap.NewEncoder()
	s.mem.Walk(w)
	s.mem.lastHand = stale
	s.mem.ahead = append(s.mem.ahead, handOver{at: stale, s: stale, bytes: 8})
	r := snap.NewDecoder(w.Payload())
	if s.mem.Walk(r); r.ExpectEOF() != nil {
		t.Fatalf("%s: restore: %v", when, r.Err())
	}
}

func storeBytes(m *Memory) []byte {
	w := snap.NewEncoder()
	m.store.Walk(w)
	return w.Payload()
}

// TestHandOverMatchesInboxModel is the differential for servicing READs
// at hand-over: random machines (1-8 sources of READ/WRITE 32/64, block
// reads and PUTs, some waiting for their READs; latency 0, 1, 2, 10 or
// 150 and flipped between slices; 1-3 ports; 1-4 buses, 0-4 hops) run
// through Memory and the inbox-only refMemory under random RunUntil
// slices and Stops before or after the memory's turn must agree on every
// response and its delivery cycle, every fault, the statistics and
// Undelivered at every return, the whole engine, network and memory
// state at every slice boundary, and the final store.
func TestHandOverMatchesInboxModel(t *testing.T) {
	var c diffCounts
	for seed := uint64(1); seed <= 300; seed++ {
		runMemDiff(t, randomDiffParams(seed), &c)
	}
	t.Logf("%+v", c)
	if c.handedOver < 5000 || c.ticksSaved < 2000 || c.hiddenAt < 20 || c.responses < 50_000 {
		t.Fatalf("the machines exercised too little: %+v", c)
	}
}
