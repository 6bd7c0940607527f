package noc

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snap"
)

// sink records deliveries.
type sink struct {
	got []Message
	at  []sim.Cycle
}

func (s *sink) Deliver(now sim.Cycle, m Message) {
	s.got = append(s.got, m)
	s.at = append(s.at, now)
}

// runNet drives a network alone in an engine until quiescent.
func runNet(t *testing.T, n *Network, inject func(h *sim.Handle), until sim.Cycle) {
	t.Helper()
	e := sim.NewEngine()
	h := e.Register(n)
	n.Attach(h)
	inject(h)
	stop := &stopAt{e: e, when: until}
	e.Register(stop)
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

type stopAt struct {
	e    *sim.Engine
	when sim.Cycle
}

func (s *stopAt) Name() string { return "stop" }
func (s *stopAt) Tick(now sim.Cycle) sim.Cycle {
	if now >= s.when {
		s.e.Stop()
		return sim.Never
	}
	return s.when
}

func TestSingleMessageTiming(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 4})
	dst := &sink{}
	n.Register(9, dst)
	runNet(t, n, func(h *sim.Handle) {
		n.Send(0, Message{Src: 1, Dst: 9, Kind: KindFrameStore, A: 7})
	}, 100)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(dst.got))
	}
	// Sent at 0, arbitrated at 1, occupancy ceil(16/8)=2, hop 4 => 7.
	if dst.at[0] != 7 {
		t.Fatalf("delivered at %d, want 7", dst.at[0])
	}
	st := n.Stats()
	if st.Messages != 1 || st.Bytes != 16 || st.BusyCycles != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPayloadExtendsOccupancy(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 0})
	dst := &sink{}
	n.Register(2, dst)
	runNet(t, n, func(h *sim.Handle) {
		n.Send(0, Message{Src: 1, Dst: 2, Kind: KindMemBlockData, Data: make([]byte, 128)})
	}, 200)
	// (16+128)/8 = 18 cycles occupancy, granted at 1 => delivered 19.
	if dst.at[0] != 19 {
		t.Fatalf("delivered at %d, want 19", dst.at[0])
	}
}

func TestBusContentionSerialises(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 0})
	dst := &sink{}
	n.Register(2, dst)
	runNet(t, n, func(h *sim.Handle) {
		for i := 0; i < 4; i++ {
			n.Send(0, Message{Src: 1, Dst: 2, Kind: KindFrameStore, B: int64(i)})
		}
	}, 100)
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
	runNet(t, n, func(h *sim.Handle) {
		for i := 0; i < 4; i++ {
			n.Send(0, Message{Src: 1, Dst: 2, Kind: KindFrameStore, B: int64(i)})
		}
	}, 100)
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
	runNet(t, n, func(h *sim.Handle) {
		for i := 0; i < total; i++ {
			dst := 10 + rng.Intn(3)
			n.Send(0, Message{Src: 1, Dst: dst, Kind: KindFrameStore, B: int64(i),
				Data: make([]byte, rng.Intn(120))})
		}
	}, 100000)
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
	runNet(t, n, func(h *sim.Handle) {
		for i := 0; i < msgs; i++ {
			m := Message{Src: 1, Dst: 2, Kind: KindMemBlockData, Data: make([]byte, 112)}
			bytes += int64(m.WireSize())
			n.Send(0, m)
		}
	}, 100000)
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
		e := sim.NewEngine()
		h := e.Register(n)
		n.Attach(h)
		rng := sim.NewRand(7)
		for i := 0; i < 100; i++ {
			n.Send(0, Message{Src: rng.Intn(4), Dst: 5, Kind: KindFrameStore,
				B: int64(i), Data: make([]byte, rng.Intn(64))})
		}
		st := &stopAt{e: e, when: 10000}
		e.Register(st)
		if _, err := e.Run(0); err != nil {
			panic(err)
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

// TestMinDeliveryLatency pins the lower bound the SPU's local-store
// burst window leans on: no message — any size, any bus contention
// state — delivers sooner than MinDeliveryLatency cycles after its
// Send. If arbitration ever gets faster, this test fails and the bound
// (and every horizon computed from it) must be revisited.
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
		runNet(t, n, func(h *sim.Handle) {
			n.Send(sentAt, Message{Src: 2, Dst: 1, Kind: KindMemRead32})
			h.Wake(sentAt)
		}, 100)
		if len(dst.got) != 1 {
			t.Fatalf("cfg %+v: delivered %d messages, want 1", cfg, len(dst.got))
		}
		if lb := sentAt + cfg.MinDeliveryLatency(); dst.at[0] < lb {
			t.Errorf("cfg %+v: delivered at %d, bound says >= %d", cfg, dst.at[0], lb)
		}
	}
}

// Touch groups: the per-group delivery cycles, the network's half of the
// SPU's local-store burst window. A message has its exact delivery
// cycle from the moment it is sent.
func TestTouchGroupTracking(t *testing.T) {
	n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 4})
	watched := &sink{}
	other := &sink{}
	n.Register(1, watched)
	n.Register(2, other)
	n.DeclareTouchGroup(0, 1)

	if got := n.EarliestDeliveryTo(0); got != sim.Never {
		t.Fatalf("EarliestDeliveryTo with no traffic = %d, want Never", got)
	}

	e := sim.NewEngine()
	n.Attach(e.Register(n))
	// One bus, 2-cycle occupancy, hop 4: the unwatched message is granted
	// at 1 and holds the bus until 3; the two watched ones behind it are
	// granted at 3 and 5 and deliver at 9 and 11.
	n.Send(0, Message{Src: 1, Dst: 2, Kind: KindMemRead32})
	if got := n.EarliestDeliveryTo(0); got != sim.Never {
		t.Fatalf("traffic to an unwatched endpoint shows up: %d", got)
	}
	n.Send(0, Message{Src: 2, Dst: 1, Kind: KindMemRead32})
	n.Send(0, Message{Src: 2, Dst: 1, Kind: KindMemRead32})
	if got := n.EarliestDeliveryTo(0); got != 9 {
		t.Fatalf("EarliestDeliveryTo right after Send = %d, want 9", got)
	}
	if got := n.EarliestDeliveryTo(5); got != sim.Never {
		t.Fatalf("EarliestDeliveryTo(undeclared group) = %d, want Never", got)
	}

	// Past the first watched delivery the second one is the answer; past
	// both, nothing is.
	e.Register(&stopAt{e: e, when: 9})
	if _, err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(watched.at) != 1 || watched.at[0] != 9 {
		t.Fatalf("watched deliveries by cycle 9: %v, want [9]", watched.at)
	}
	if got := n.EarliestDeliveryTo(0); got != 11 {
		t.Fatalf("EarliestDeliveryTo after the first delivery = %d, want 11", got)
	}

	// Reset clears the per-group state.
	n.Reset()
	if got := n.EarliestDeliveryTo(0); got != sim.Never {
		t.Fatalf("touch state survived Reset: %d", got)
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
	diffSinks = 6 // endpoints 0..5 only log; 0 and 1 form touch group 0, 2 group 1
	diffEcho  = 6 // endpoint that sends from inside Deliver, as the PPE does
	diffTail  = 15
)

// diffGroup is the touch group of a diff endpoint (-1 when unwatched).
// The unwatched sinks 3, 4 and 5 may be timed endpoints: 5 always is, 3
// and 4 by the schedule's seed.
var diffGroup = [diffSinks + 1]int{0, 0, 1, -1, -1, -1, -1}

// handed is one message a timed endpoint was given at Send.
type handed struct {
	at   sim.Cycle // delivery cycle
	seq  int64     // network send order
	id   int64     // the message's B field
	done bool      // a tick at or after `at` has consumed it
}

// timedSink is a timed endpoint that keeps what it is handed and follows
// the TimedEndpoint contract the way the memory does: a wake for the
// cycle after each delivery, every tick consuming what has been
// delivered by then and re-arming for the rest. It fails the test if a
// message waits past the cycle after its delivery.
type timedSink struct {
	t   *testing.T
	h   *sim.Handle
	got []handed
}

func (s *timedSink) Name() string { return "timed-sink" }

func (s *timedSink) DeliverAt(at sim.Cycle, seq int64, m Message) {
	s.got = append(s.got, handed{at: at, seq: seq, id: m.B})
	s.h.Wake(at + 1)
}

func (s *timedSink) Undelivered(now sim.Cycle) int {
	k := 0
	for _, h := range s.got {
		if h.at > now {
			k++
		}
	}
	return k
}

func (s *timedSink) Tick(now sim.Cycle) sim.Cycle {
	next := sim.Never
	for i := range s.got {
		h := &s.got[i]
		switch {
		case h.done:
		case h.at > now:
			next = min(next, h.at+1)
		case now > h.at+1:
			s.t.Fatalf("message %d, delivered at %d, was still waiting at %d", h.id, h.at, now)
		default:
			h.done = true
		}
	}
	return next
}

// diffDriver feeds one random schedule to the network (through the
// engine, registered behind it like every real sender) and to the
// reference model, and compares them after every cycle. It ticks every
// cycle from 0, so cycle c is also the index of its c-th record.
type diffDriver struct {
	t     *testing.T
	e     *sim.Engine
	n     *Network
	ref   *refNet
	rng   *sim.Rand
	until sim.Cycle
	burst int // cycles left in the current run of back-to-back sends

	nextID   int64
	timed    [diffSinks]*timedSink // non-nil for the sinks registered as timed
	gotNet   []delivery            // deliveries to the ticked endpoints
	gotRef   []delivery            // the model's deliveries, to all endpoints
	answers  [][2]sim.Cycle        // per cycle, after its sends: EarliestDeliveryTo(0), (1)
	sentAt   map[int64]sim.Cycle   // message id -> send cycle
	backlog  int                   // compared cycles on which the model still had a queue
	payloads [129][]byte           // shared zero payloads by length
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
	return Message{Src: 9, Dst: d.rng.Intn(diffSinks + 1), Kind: KindFrameStore,
		B: d.nextID, Data: d.payloads[size]}
}

// echoes are the follow-ups the echo endpoint sends from inside Deliver
// for message id: up to three, derived from the id so the network's and
// the model's copies agree without sharing the generator.
func echoes(id int64) []Message {
	if id >= 1<<32 {
		return nil // an echo is not echoed again
	}
	out := make([]Message, id%4)
	for k := range out {
		out[k] = Message{Src: diffEcho, Dst: int(id+int64(k)) % diffSinks, Kind: KindFrameStore,
			B: id<<32 | int64(k+1), Pad: int32(id % 64)}
	}
	return out
}

// Deliver is the network's side: every endpoint logs, the echo endpoint
// also sends.
func (d *diffDriver) Deliver(now sim.Cycle, m Message) {
	d.gotNet = append(d.gotNet, delivery{now, m.B, m.Dst})
	if m.Dst == diffEcho {
		for _, f := range echoes(m.B) {
			d.sentAt[f.B] = now
			d.n.Send(now, f)
		}
	}
}

// refDeliver is the model's side of the same endpoints.
func (d *diffDriver) refDeliver(now sim.Cycle, m Message) {
	d.gotRef = append(d.gotRef, delivery{now, m.B, m.Dst})
	if m.Dst == diffEcho {
		for _, f := range echoes(m.B) {
			d.ref.send(now, f)
		}
	}
}

func (d *diffDriver) Tick(now sim.Cycle) sim.Cycle {
	// The network (component 0) has already ticked at now if it had a
	// delivery due; the model ticks every cycle.
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
		d.sentAt[m.B] = now
		d.n.Send(now, m)
		d.ref.send(now, m)
	}
	if got, want := d.n.Stats(), d.ref.stats; got != want {
		d.t.Fatalf("cycle %d: stats %+v, model %+v", now, got, want)
	}
	if len(d.ref.queue) > 0 {
		d.backlog++
	}
	d.answers = append(d.answers, [2]sim.Cycle{d.n.EarliestDeliveryTo(0), d.n.EarliestDeliveryTo(1)})
	if now >= d.until {
		d.e.Stop()
		return sim.Never
	}
	return now + 1
}

// TestSendTimeArbitrationMatchesTickDrivenModel drives random schedules
// through the network and the reference arbiter, some of the endpoints
// timed and the rest ticked. The facts the equivalence rests on each
// fail it when broken: queue depth read off the send cycle
// (Stats.MaxQueue, every cycle), BusyCycles/Bytes counted from the grant
// and not from the Send (Stats, every cycle, and once more after a stop
// that leaves messages ungranted), Messages counted from the delivery
// cycle whether the network delivers the message or handed it over at
// the Send (the same reads of Stats; the stop also leaves handed-over
// messages short of their delivery cycle), and deliveries in (delivery
// cycle, send order), also for a Send made during Deliver — for a timed
// endpoint, the cycle and sequence number it is handed with each
// message must sort its messages into the model's delivery order.
func TestSendTimeArbitrationMatchesTickDrivenModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		cfg := Config{Buses: 1 + rng.Intn(4), BytesPerCyc: 8, HopLatency: rng.Intn(5)}
		d := &diffDriver{t: t, e: sim.NewEngine(), n: New(cfg), rng: rng,
			ref:    &refNet{cfg: cfg, busFree: make([]sim.Cycle, cfg.Buses)},
			until:  sim.Cycle(300 + rng.Intn(300)),
			sentAt: make(map[int64]sim.Cycle)}
		for i := range d.payloads {
			d.payloads[i] = make([]byte, i)
		}
		for ep := 0; ep <= diffEcho; ep++ {
			if g := diffGroup[ep]; g >= 0 {
				d.n.DeclareTouchGroup(g, ep)
			} else if ep == 5 || ep != diffEcho && rng.Intn(2) == 0 {
				d.timed[ep] = &timedSink{t: t}
				d.n.RegisterTimed(ep, d.timed[ep])
				continue
			}
			d.n.Register(ep, d)
		}
		d.n.Attach(d.e.Register(d.n))
		d.e.Register(d)
		for _, sink := range d.timed {
			if sink != nil {
				sink.h = d.e.Register(sink)
			}
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
		if got, want := d.n.Stats(), d.ref.stats; got != want {
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
		// The model's log splits into what the network delivered itself
		// and, per timed endpoint, what it handed over.
		var refTicked []delivery
		var refTimed [diffSinks][]delivery
		for _, del := range d.gotRef {
			if del.dst < diffSinks && d.timed[del.dst] != nil {
				refTimed[del.dst] = append(refTimed[del.dst], del)
			} else {
				refTicked = append(refTicked, del)
			}
		}
		if len(d.gotNet) != len(refTicked) || len(d.gotNet) < 100 {
			t.Fatalf("seed %d: %d deliveries, model %d", seed, len(d.gotNet), len(refTicked))
		}
		for i := range d.gotNet {
			if d.gotNet[i] != refTicked[i] {
				t.Fatalf("seed %d: delivery %d is %+v, model %+v", seed, i, d.gotNet[i], refTicked[i])
			}
		}
		for ep, sink := range d.timed {
			if sink == nil {
				continue
			}
			got := slices.Clone(sink.got)
			slices.SortFunc(got, func(a, b handed) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
			})
			if len(got) != len(refTimed[ep]) || len(got) < 20 {
				t.Fatalf("seed %d: timed endpoint %d was handed %d messages, model delivered %d", seed, ep, len(got), len(refTimed[ep]))
			}
			for i, h := range got {
				if want := refTimed[ep][i]; h.at != want.at || h.id != want.id || !h.done {
					t.Fatalf("seed %d: timed endpoint %d: message %d in (cycle, send order) is id %d at %d (consumed: %v), model id %d at %d",
						seed, ep, i, h.id, h.at, h.done, want.id, want.at)
				}
			}
		}
		if got, want := d.n.Stats(), d.ref.stats; got != want {
			t.Fatalf("seed %d: drained: stats %+v, model %+v", seed, got, want)
		}

		// EarliestDeliveryTo, asked after every cycle's sends, against
		// the model's exact answer: the earliest delivery the model went
		// on to make to the group among the messages sent by then.
		for c, got := range d.answers {
			want := [2]sim.Cycle{sim.Never, sim.Never}
			for _, del := range d.gotRef {
				g := diffGroup[del.dst]
				if g >= 0 && d.sentAt[del.id] <= sim.Cycle(c) && del.at > sim.Cycle(c) && del.at < want[g] {
					want[g] = del.at
				}
			}
			if got != want {
				t.Fatalf("seed %d cycle %d: EarliestDeliveryTo = %v, model %v", seed, c, got, want)
			}
		}
	}
}

// TestSnapshotRoundTripWithFutureGrants snapshots a backlogged network —
// some messages on their bus, some whose grant cycle is still ahead,
// none of which the tick-driven arbiter would have looked at yet, and one
// handed to a timed endpoint (whose state is its own to save: the test
// copies it) — and requires the restored copy to finish exactly like the
// original: deliveries, statistics, and the statistics on the way (the
// ungranted ones and the one short of its delivery cycle must not be
// counted early on either side).
func TestSnapshotRoundTripWithFutureGrants(t *testing.T) {
	build := func() (*Network, *sink, *timedSink, *sim.Engine) {
		n := New(Config{Buses: 1, BytesPerCyc: 8, HopLatency: 2})
		dst, timed := &sink{}, &timedSink{t: t}
		n.Register(1, dst)
		n.RegisterTimed(3, timed)
		n.DeclareTouchGroup(0, 1)
		e := sim.NewEngine()
		n.Attach(e.Register(n))
		timed.h = e.Register(timed)
		return n, dst, timed, e
	}
	orig, origDst, origTimed, e := build()
	for i := 0; i < 6; i++ { // 8-cycle occupancy each: grants at 1, 9, 17, 25, 33, 41
		orig.Send(0, Message{Src: 2, Dst: 1, Kind: KindMemBlockData, B: int64(i), Data: make([]byte, 48)})
	}
	orig.Send(0, Message{Src: 2, Dst: 3, Kind: KindMemRead32, B: 7}) // granted at 49, delivered at 53
	if len(origTimed.got) != 1 || origTimed.got[0].at != 53 {
		t.Fatalf("the timed endpoint was handed %+v at the Send, want one message for cycle 53", origTimed.got)
	}
	if at, st := e.RunUntil(20); st != sim.RunBudget || at != 27 {
		t.Fatalf("RunUntil(20) = %d, %v; want the third delivery's cycle 27", at, st)
	}
	mid := Stats{Messages: 2, Bytes: 4 * 64, BusyCycles: 4 * 8, MaxQueue: 7}
	if got := orig.Stats(); got != mid {
		t.Fatalf("stats at the snapshot = %+v, want %+v (grants at 33, 41 and 49 lie ahead)", got, mid)
	}
	// Three wait for the bus — the handed-over one among them — and two
	// are past their grant and short of their delivery.
	if got := orig.DumpState(); got != "queued=3 in-flight=2" {
		t.Fatalf("DumpState at the snapshot = %q", got)
	}
	var w snap.Writer
	if err := e.Snapshot(&w); err != nil {
		t.Fatal(err)
	}
	orig.Snapshot(&w)

	cp, cpDst, cpTimed, e2 := build()
	cpTimed.got = slices.Clone(origTimed.got)
	r := snap.NewReader(w.Bytes())
	if err := e2.Restore(r); err != nil {
		t.Fatal(err)
	}
	if err := cp.Restore(r); err != nil {
		t.Fatal(err)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatal(err)
	}
	var w2 snap.Writer
	if err := e2.Snapshot(&w2); err != nil {
		t.Fatal(err)
	}
	cp.Snapshot(&w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("a restored network snapshots differently")
	}
	if got := cp.Stats(); got != mid {
		t.Fatalf("restored stats = %+v, want %+v", got, mid)
	}
	if got, want := cp.EarliestDeliveryTo(0), orig.EarliestDeliveryTo(0); got != want || got != 27 {
		t.Fatalf("restored EarliestDeliveryTo = %d, original %d, want 27", got, want)
	}
	// A send after the restore queues behind the restored bookings.
	late := Message{Src: 2, Dst: 1, Kind: KindMemRead32, B: 6}
	orig.Send(27, late)
	cp.Send(27, late)
	if st := cp.Stats(); st.MaxQueue != 7 || st != orig.Stats() {
		t.Fatalf("after a late send: restored %+v, original %+v", st, orig.Stats())
	}
	e.RunUntil(sim.Never)
	e2.RunUntil(sim.Never)
	want := []sim.Cycle{27, 35, 43, 51, 55} // the late one: granted at 51, 2 cycles, hop 2
	if len(cpDst.at) != len(want) || len(origDst.at) != 2+len(want) {
		t.Fatalf("deliveries after the snapshot: restored %v, original %v", cpDst.at, origDst.at)
	}
	for i, at := range want {
		if cpDst.at[i] != at || origDst.at[2+i] != at || cpDst.got[i].B != origDst.got[2+i].B {
			t.Fatalf("delivery %d: restored %d (id %d), original %d (id %d), want cycle %d",
				i, cpDst.at[i], cpDst.got[i].B, origDst.at[2+i], origDst.got[2+i].B, at)
		}
	}
	if !cpTimed.got[0].done || !origTimed.got[0].done {
		t.Fatal("the handed-over message was never consumed")
	}
	if got := cp.Stats(); got != orig.Stats() || got.Messages != 8 {
		t.Fatalf("final stats: restored %+v, original %+v, want 8 messages", got, orig.Stats())
	}
}

// TestEndpointKindFixedAtRegistration: an id is ticked or timed, once,
// and a timed endpoint cannot be in a touch group (EarliestDeliveryTo
// reads the network's own delivery heap, which never holds its messages).
func TestEndpointKindFixedAtRegistration(t *testing.T) {
	for name, f := range map[string]func(n *Network){
		"ticked then timed": func(n *Network) { n.Register(1, &sink{}); n.RegisterTimed(1, &timedSink{}) },
		"timed then ticked": func(n *Network) { n.RegisterTimed(1, &timedSink{}); n.Register(1, &sink{}) },
		"timed twice":       func(n *Network) { n.RegisterTimed(1, &timedSink{}); n.RegisterTimed(1, &timedSink{}) },
		"timed into group":  func(n *Network) { n.RegisterTimed(1, &timedSink{}); n.DeclareTouchGroup(0, 1) },
		"group then timed":  func(n *Network) { n.DeclareTouchGroup(0, 1); n.RegisterTimed(1, &timedSink{}) },
		"nil timed":         func(n *Network) { n.RegisterTimed(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(New(DefaultConfig()))
		}()
	}
}
