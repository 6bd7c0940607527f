package noc

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snap"
)

// sink records what it is handed, in (delivery cycle, send order): the
// order in which an endpoint that acts on its arrivals takes them.
type sink struct {
	got []Message
	at  []sim.Cycle
	seq []int64
}

func (s *sink) DeliverAt(at sim.Cycle, seq int64, m Message) {
	i := len(s.at)
	for i > 0 && (s.at[i-1] > at || s.at[i-1] == at && s.seq[i-1] > seq) {
		i--
	}
	s.got = slices.Insert(s.got, i, m)
	s.at = slices.Insert(s.at, i, at)
	s.seq = slices.Insert(s.seq, i, seq)
}

func (s *sink) Undelivered(now sim.Cycle) int {
	k := 0
	for _, at := range s.at {
		if at > now {
			k++
		}
	}
	return k
}

func TestSingleMessageTiming(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 4})
	dst := &sink{}
	n.Register(9, dst)
	n.Send(0, Message{Src: 1, Dst: 9, Kind: KindFrameStore, A: 7})
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(dst.got))
	}
	// Sent at 0, arbitrated at 1, occupancy ceil(16/8)=2, hop 4 => 7.
	if dst.at[0] != 7 {
		t.Fatalf("delivered at %d, want 7", dst.at[0])
	}
	if st := n.Stats(6); st.Messages != 0 || st.Bytes != 16 || st.BusyCycles != 2 {
		t.Fatalf("stats before the delivery cycle = %+v", st)
	}
	if st := n.Stats(7); st.Messages != 1 || st.Bytes != 16 || st.BusyCycles != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPayloadExtendsOccupancy(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 0})
	dst := &sink{}
	n.Register(2, dst)
	n.Send(0, Message{Src: 1, Dst: 2, Kind: KindMemBlockData, Data: make([]byte, 128)})
	// (16+128)/8 = 18 cycles occupancy, granted at 1 => delivered 19.
	if dst.at[0] != 19 {
		t.Fatalf("delivered at %d, want 19", dst.at[0])
	}
}

func TestBusContentionSerialises(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 0})
	dst := &sink{}
	n.Register(2, dst)
	for i := 0; i < 4; i++ {
		n.Send(0, Message{Src: 1, Dst: 2, Kind: KindFrameStore, B: int64(i)})
	}
	if len(dst.got) != 4 {
		t.Fatalf("delivered %d, want 4", len(dst.got))
	}
	// One bus, 2-cycle occupancy each: deliveries at 3,5,7,9.
	want := []sim.Cycle{3, 5, 7, 9}
	for i, w := range want {
		if dst.at[i] != w {
			t.Fatalf("delivery %d at %d, want %d (all=%v)", i, dst.at[i], w, dst.at)
		}
	}
}

func TestParallelBusesOverlap(t *testing.T) {
	n := New(Config{Buses: 4, BytesPerCyc: 8, HopLatency: 0})
	dst := &sink{}
	n.Register(2, dst)
	for i := 0; i < 4; i++ {
		n.Send(0, Message{Src: 1, Dst: 2, Kind: KindFrameStore, B: int64(i)})
	}
	// Four buses: all four delivered at cycle 3.
	for i, at := range dst.at {
		if at != 3 {
			t.Fatalf("delivery %d at %d, want 3", i, at)
		}
	}
}

func TestAllMessagesDeliveredNoDuplicates(t *testing.T) {
	n := New(DefaultConfig())
	sinks := map[int]*sink{10: {}, 11: {}, 12: {}}
	for id, s := range sinks {
		n.Register(id, s)
	}
	const total = 300
	rng := sim.NewRand(99)
	for i := 0; i < total; i++ {
		dst := 10 + rng.Intn(3)
		n.Send(0, Message{Src: 1, Dst: int32(dst), Kind: KindFrameStore, B: int64(i),
			Data: make([]byte, rng.Intn(120))})
	}
	seen := make(map[int64]bool)
	count := 0
	for _, s := range sinks {
		for _, m := range s.got {
			if seen[m.B] {
				t.Fatalf("message %d delivered twice", m.B)
			}
			seen[m.B] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("delivered %d, want %d", count, total)
	}
}

// Bandwidth conservation: the makespan of a saturated network can never
// beat aggregate bandwidth.
func TestBandwidthBound(t *testing.T) {
	cfg := Config{Buses: 2, BytesPerCyc: 8, HopLatency: 0}
	n := New(cfg)
	dst := &sink{}
	n.Register(2, dst)
	const msgs = 64
	var bytes int64
	for i := 0; i < msgs; i++ {
		m := Message{Src: 1, Dst: 2, Kind: KindMemBlockData, Data: make([]byte, 112)}
		bytes += int64(m.WireSize())
		n.Send(0, m)
	}
	last := dst.at[len(dst.at)-1]
	minCycles := bytes / int64(cfg.Buses*cfg.BytesPerCyc)
	if int64(last) < minCycles {
		t.Fatalf("makespan %d beats bandwidth bound %d", last, minCycles)
	}
	// And it should be close to the bound (within the final hop+grant).
	if int64(last) > minCycles+20 {
		t.Fatalf("makespan %d far above bound %d: buses underutilised", last, minCycles)
	}
}

func TestSendToUnregisteredPanics(t *testing.T) {
	n := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Send to unregistered endpoint did not panic")
		}
	}()
	n.Send(0, Message{Src: 0, Dst: 99})
}

func TestDuplicateRegisterPanics(t *testing.T) {
	n := New(DefaultConfig())
	n.Register(1, &sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	n.Register(1, &sink{})
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []int64 {
		n := New(DefaultConfig())
		dst := &sink{}
		n.Register(5, dst)
		rng := sim.NewRand(7)
		for i := 0; i < 100; i++ {
			n.Send(0, Message{Src: int32(rng.Intn(4)), Dst: 5, Kind: KindFrameStore,
				B: int64(i), Data: make([]byte, rng.Intn(64))})
		}
		var order []int64
		for _, m := range dst.got {
			order = append(order, m.B)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}

// TestMinDeliveryLatency pins the lower bound the memory's service at
// hand-over leans on (mem.Memory): no message — any size, any bus
// contention state — delivers sooner than MinDeliveryLatency cycles
// after its Send. If arbitration ever gets faster, this test fails and
// the bound must be revisited.
func TestMinDeliveryLatency(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{Buses: 8, BytesPerCyc: 64, HopLatency: 0}, // fastest plausible wiring
		{Buses: 1, BytesPerCyc: 8, HopLatency: 4},
	} {
		n := New(cfg)
		dst := &sink{}
		n.Register(1, dst)
		n.Register(2, &sink{})
		var sentAt sim.Cycle = 3
		n.Send(sentAt, Message{Src: 2, Dst: 1, Kind: KindMemRead32})
		if len(dst.got) != 1 {
			t.Fatalf("cfg %+v: delivered %d messages, want 1", cfg, len(dst.got))
		}
		if lb := sentAt + cfg.MinDeliveryLatency(); dst.at[0] < lb {
			t.Errorf("cfg %+v: delivered at %d, bound says >= %d", cfg, dst.at[0], lb)
		}
	}
}

// refNet is the tick-driven FIFO arbiter the network used before it
// moved arbitration into Send, kept as the reference model: messages
// wait in a queue, and every cycle the head is granted the earliest-free
// bus (lowest index on ties) if it was sent on an earlier cycle and a
// bus is free; a blocked head blocks the rest. Statistics are counted
// at the grant, queue depth at the send. It must be ticked every cycle,
// before that cycle's sends.
type refNet struct {
	cfg     Config
	queue   []refMsg
	busFree []sim.Cycle
	dels    []refMsg // granted, undelivered; at is the delivery cycle
	seq     int64
	stats   Stats
}

type refMsg struct {
	m   Message
	at  sim.Cycle // send cycle while queued, delivery cycle once granted
	seq int64
}

func (r *refNet) send(now sim.Cycle, m Message) {
	r.seq++
	r.queue = append(r.queue, refMsg{m: m, at: now, seq: r.seq})
	r.stats.MaxQueue = max(r.stats.MaxQueue, len(r.queue))
}

func (r *refNet) tick(now sim.Cycle, deliver func(now sim.Cycle, m Message)) {
	for len(r.queue) > 0 && r.queue[0].at < now {
		best := -1
		for i, f := range r.busFree {
			if f <= now && (best == -1 || f < r.busFree[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		p := r.queue[0]
		r.queue = r.queue[1:]
		occ := sim.Cycle(max(1, (p.m.WireSize()+r.cfg.BytesPerCyc-1)/r.cfg.BytesPerCyc))
		r.busFree[best] = now + occ
		r.stats.BusyCycles += int64(occ)
		r.stats.Bytes += int64(p.m.WireSize())
		p.at = now + occ + sim.Cycle(r.cfg.HopLatency)
		r.dels = append(r.dels, p)
	}
	for {
		due := -1
		for i, d := range r.dels {
			if d.at <= now && (due == -1 || d.at < r.dels[due].at ||
				d.at == r.dels[due].at && d.seq < r.dels[due].seq) {
				due = i
			}
		}
		if due == -1 {
			return
		}
		m := r.dels[due].m
		r.dels = append(r.dels[:due], r.dels[due+1:]...)
		r.stats.Messages++
		deliver(now, m)
	}
}

// delivery is one logged delivery; the position in the log is the order.
type delivery struct {
	at  sim.Cycle
	id  int64 // the message's B field
	dst int
}

const (
	diffSinks = 6 // endpoints 0..5 only log
	diffEcho  = 6 // endpoint that sends on the delivery cycle, as the PPE does
	diffTail  = 15
)

// holder is an endpoint the way the machine's are: it holds what it is
// handed in a MsgHeap, wakes lag cycles after each delivery cycle (0
// for one that acts on arrival, 1 for one that only queues), and its
// tick takes what has been delivered by then, in (delivery cycle, send
// order), and re-arms for the rest. It fails the test if a message
// waits past its wake. With act set, taking a message calls it.
type holder struct {
	t    *testing.T
	h    *sim.Handle
	lag  sim.Cycle
	act  func(now sim.Cycle, m Message)
	held MsgHeap
	got  []delivery // taken, in order; at is the delivery cycle
}

func (s *holder) Name() string { return "holder" }

func (s *holder) DeliverAt(at sim.Cycle, seq int64, m Message) {
	s.held.Push(at, seq, m)
	s.h.Wake(at + s.lag)
}

func (s *holder) Undelivered(now sim.Cycle) int { return s.held.Beyond(now) }

func (s *holder) Tick(now sim.Cycle) sim.Cycle {
	for s.held.Due(now) {
		at := s.held.Earliest()
		m, _ := s.held.PopDue(now)
		if now > at+s.lag {
			s.t.Fatalf("message %d, delivered at %d, was still waiting at %d", m.B, at, now)
		}
		s.got = append(s.got, delivery{at, m.B, int(m.Dst)})
		if s.act != nil {
			s.act(now, m)
		}
	}
	if s.held.Len() == 0 {
		return sim.Never
	}
	return s.held.Earliest() + s.lag
}

// diffDriver feeds one random schedule to the network (through the
// engine, registered behind the echo endpoint as the machine's senders
// are behind the PPE) and to the reference model, and compares them
// after every cycle. It ticks every cycle from 0, so cycle c is also the
// index of its c-th record.
type diffDriver struct {
	t     *testing.T
	e     *sim.Engine
	n     *Network
	ref   *refNet
	rng   *sim.Rand
	until sim.Cycle
	burst int // cycles left in the current run of back-to-back sends

	nextID   int64
	eps      [diffEcho + 1]*holder
	gotRef   []delivery // the model's deliveries, to all endpoints
	backlog  int        // compared cycles on which the model still had a queue
	payloads [129][]byte
}

func (d *diffDriver) Name() string { return "driver" }

// message builds the next message of the schedule: header-only up to a
// 128-byte payload, to a random endpoint.
func (d *diffDriver) message() Message {
	d.nextID++
	size := 0
	if d.rng.Intn(3) > 0 {
		size = d.rng.Intn(129)
	}
	return Message{Src: 9, Dst: int32(d.rng.Intn(diffSinks + 1)), Kind: KindFrameStore,
		B: d.nextID, Data: d.payloads[size]}
}

// echoes are the follow-ups the echo endpoint sends on the delivery
// cycle of message id: up to three, derived from the id so the
// network's and the model's copies agree without sharing the generator.
func echoes(id int64) []Message {
	if id >= 1<<32 {
		return nil // an echo is not echoed again
	}
	out := make([]Message, id%4)
	for k := range out {
		out[k] = Message{Src: diffEcho, Dst: int32(id+int64(k)) % diffSinks, Kind: KindFrameStore,
			B: id<<32 | int64(k+1), Pad: int32(id % 64)}
	}
	return out
}

// refDeliver is the model's side of the endpoints.
func (d *diffDriver) refDeliver(now sim.Cycle, m Message) {
	d.gotRef = append(d.gotRef, delivery{now, m.B, int(m.Dst)})
	if m.Dst == diffEcho {
		for _, f := range echoes(m.B) {
			d.ref.send(now, f)
		}
	}
}

func (d *diffDriver) Tick(now sim.Cycle) sim.Cycle {
	// The echo endpoint (component 0) has already ticked at now if it had
	// a delivery due; the model ticks every cycle.
	d.ref.tick(now, d.refDeliver)
	sends := 0
	switch {
	case now+diffTail >= d.until:
		sends = 3 // end on a backlog: the stop finds messages waiting for a bus
	case d.burst > 0:
		d.burst--
		sends = 1 + d.rng.Intn(3)
	case d.rng.Intn(40) == 0:
		d.burst = 5 + d.rng.Intn(30)
	case d.rng.Intn(4) == 0:
		sends = 1
	}
	for i := 0; i < sends; i++ {
		m := d.message()
		d.n.Send(now, m)
		d.ref.send(now, m)
	}
	if got, want := d.n.Stats(now), d.ref.stats; got != want {
		d.t.Fatalf("cycle %d: stats %+v, model %+v", now, got, want)
	}
	if len(d.ref.queue) > 0 {
		d.backlog++
	}
	if now >= d.until {
		d.e.Stop()
		return sim.Never
	}
	return now + 1
}

// TestSendTimeArbitrationMatchesTickDrivenModel drives random schedules
// through the network and the reference arbiter. Every endpoint holds
// what it is handed and takes it on its own tick, as the machine's do:
// six only log, a cycle after each delivery, and one acts on the
// delivery cycle itself and sends from there, as the PPE does. The facts
// the equivalence rests on each fail it when broken: queue depth read
// off the send cycle (Stats.MaxQueue, every cycle), BusyCycles/Bytes
// counted from the grant and not from the Send (Stats, every cycle, and
// once more after a stop that leaves messages ungranted), Messages
// counted from the delivery cycle although the network hands every
// message over at the Send (the same reads of Stats; the stop also
// leaves handed-over messages short of their delivery cycle), and
// deliveries in (delivery cycle, send order), also for a Send made on a
// delivery cycle: the cycle and sequence number an endpoint is handed
// with each message must sort its messages into the model's delivery
// order.
func TestSendTimeArbitrationMatchesTickDrivenModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		cfg := Config{Buses: 1 + rng.Intn(4), BytesPerCyc: 8, HopLatency: rng.Intn(5)}
		d := &diffDriver{t: t, e: sim.NewEngine(), n: New(cfg), rng: rng,
			ref:   &refNet{cfg: cfg, busFree: make([]sim.Cycle, cfg.Buses)},
			until: sim.Cycle(300 + rng.Intn(300))}
		for i := range d.payloads {
			d.payloads[i] = make([]byte, i)
		}
		echo := &holder{t: t, act: func(now sim.Cycle, m Message) {
			for _, f := range echoes(m.B) {
				d.n.Send(now, f)
			}
		}}
		echo.h = d.e.Register(echo)
		d.e.Register(d)
		for ep := range d.eps {
			if ep == diffEcho {
				d.eps[ep] = echo
			} else {
				d.eps[ep] = &holder{t: t, lag: 1}
				d.eps[ep].h = d.e.Register(d.eps[ep])
			}
			d.n.Register(ep, d.eps[ep])
		}

		stopped, err := d.e.Run(0)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if len(d.ref.queue) == 0 || d.backlog < diffTail {
			t.Fatalf("seed %d: stopped at %d with no ungranted messages", seed, stopped)
		}
		if d.n.undelivered(stopped) == 0 {
			t.Fatalf("seed %d: stopped at %d with no handed-over message short of its delivery", seed, stopped)
		}
		if got, want := d.n.Stats(stopped), d.ref.stats; got != want {
			t.Fatalf("seed %d: stopped at %d with %d ungranted: stats %+v, model %+v",
				seed, stopped, len(d.ref.queue), got, want)
		}

		// Drain both (the only further sends are the echoes) and compare
		// the delivery logs: same cycles, same order.
		d.e.Resume()
		if _, err := d.e.Run(0); err == nil {
			t.Fatalf("seed %d: the drain did not run dry", seed)
		}
		for now := stopped + 1; len(d.ref.queue)+len(d.ref.dels) > 0; now++ {
			d.ref.tick(now, d.refDeliver)
		}
		var refGot [diffEcho + 1][]delivery
		for _, del := range d.gotRef {
			refGot[del.dst] = append(refGot[del.dst], del)
		}
		for ep, h := range d.eps {
			if len(h.got) != len(refGot[ep]) || len(h.got) < 20 {
				t.Fatalf("seed %d: endpoint %d took %d messages, model delivered %d", seed, ep, len(h.got), len(refGot[ep]))
			}
			for i, got := range h.got {
				if want := refGot[ep][i]; got != want {
					t.Fatalf("seed %d: endpoint %d: message %d in (cycle, send order) is id %d at %d, model id %d at %d",
						seed, ep, i, got.id, got.at, want.id, want.at)
				}
			}
		}
		if got, want := d.n.Stats(d.e.Now()), d.ref.stats; got != want {
			t.Fatalf("seed %d: drained: stats %+v, model %+v", seed, got, want)
		}
	}
}

// TestSnapshotRoundTripWithFutureGrants snapshots a backlogged network —
// some messages on their bus, some whose grant cycle is still ahead,
// none of which the tick-driven arbiter would have looked at yet — and
// requires the restored copy, with its endpoints restored from the held
// messages they saved, to finish exactly like the original: deliveries,
// statistics, and the statistics on the way (the ungranted ones and the
// ones short of their delivery cycle must not be counted early on
// either side).
func TestSnapshotRoundTripWithFutureGrants(t *testing.T) {
	build := func() (*Network, *holder, *holder, *sim.Engine) {
		n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 2})
		e := sim.NewEngine()
		dst, late := &holder{t: t}, &holder{t: t, lag: 1}
		dst.h, late.h = e.Register(dst), e.Register(late)
		n.Register(1, dst)
		n.Register(3, late)
		return n, dst, late, e
	}
	walk := func(c *snap.Codec, e *sim.Engine, n *Network, eps ...*holder) {
		e.Walk(c)
		n.Walk(c, e.Now())
		for _, h := range eps {
			h.held.Walk(c)
		}
	}
	orig, origDst, origLate, e := build()
	for i := 0; i < 6; i++ { // 8-cycle occupancy each: grants at 1, 9, 17, 25, 33, 41
		orig.Send(0, Message{Src: 2, Dst: 1, Kind: KindMemBlockData, B: int64(i), Data: make([]byte, 48)})
	}
	orig.Send(0, Message{Src: 2, Dst: 3, Kind: KindMemRead32, B: 7}) // granted at 49, delivered at 53
	if origLate.held.Len() != 1 || origLate.held.Earliest() != 53 {
		t.Fatalf("endpoint 3 was handed %d messages at the Send, the first for %d; want one for cycle 53",
			origLate.held.Len(), origLate.held.Earliest())
	}
	if at, st := e.RunUntil(20); st != sim.RunBudget || at != 27 {
		t.Fatalf("RunUntil(20) = %d, %v; want the third delivery's cycle 27", at, st)
	}
	mid := Stats{Messages: 3, Bytes: 4 * 64, BusyCycles: 4 * 8, MaxQueue: 7}
	if got := orig.Stats(27); got != mid {
		t.Fatalf("stats at the snapshot = %+v, want %+v (grants at 33, 41 and 49 lie ahead)", got, mid)
	}
	// Endpoint 1 took the deliveries of 11 and 19 and holds four more,
	// the one of 27 among them: the engine has reached 27 but not run it.
	if origDst.held.Len() != 4 || len(origDst.got) != 2 {
		t.Fatalf("endpoint 1 holds %d and took %d, want 4 and 2", origDst.held.Len(), len(origDst.got))
	}
	w := snap.NewEncoder()
	walk(w, e, orig, origDst, origLate)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	cp, cpDst, cpLate, e2 := build()
	r := snap.NewDecoder(w.Payload())
	walk(r, e2, cp, cpDst, cpLate)
	if err := r.ExpectEOF(); err != nil {
		t.Fatal(err)
	}
	w2 := snap.NewEncoder()
	walk(w2, e2, cp, cpDst, cpLate)
	if err := w2.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Payload(), w2.Payload()) {
		t.Fatal("a restored network snapshots differently")
	}
	if got := cp.Stats(e2.Now()); got != mid {
		t.Fatalf("restored stats = %+v, want %+v", got, mid)
	}
	// A send after the restore queues behind the restored bookings.
	late := Message{Src: 2, Dst: 1, Kind: KindMemRead32, B: 6}
	orig.Send(27, late)
	cp.Send(27, late)
	if st := cp.Stats(27); st.MaxQueue != 7 || st != orig.Stats(27) {
		t.Fatalf("after a late send: restored %+v, original %+v", st, orig.Stats(27))
	}
	e.RunUntil(sim.Never)
	e2.RunUntil(sim.Never)
	want := []sim.Cycle{27, 35, 43, 51, 55} // the late one: granted at 51, 2 cycles, hop 2
	if len(cpDst.got) != len(want) || len(origDst.got) != 2+len(want) {
		t.Fatalf("deliveries after the snapshot: restored %v, original %v", cpDst.got, origDst.got)
	}
	for i, at := range want {
		if cpDst.got[i] != origDst.got[2+i] || cpDst.got[i].at != at {
			t.Fatalf("delivery %d: restored %+v, original %+v, want cycle %d", i, cpDst.got[i], origDst.got[2+i], at)
		}
	}
	if len(cpLate.got) != 1 || cpLate.got[0] != origLate.got[0] {
		t.Fatalf("endpoint 3 took %+v restored, %+v originally; want the one message", cpLate.got, origLate.got)
	}
	if got := cp.Stats(e2.Now()); got != orig.Stats(e.Now()) || got.Messages != 8 {
		t.Fatalf("final stats: restored %+v, original %+v, want 8 messages", got, orig.Stats(e.Now()))
	}
}
