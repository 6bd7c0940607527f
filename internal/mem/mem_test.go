package mem

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

func TestSparseReadWriteRoundTrip(t *testing.T) {
	s := NewSparse(1 << 20)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := s.WriteBytes(1000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadBytes(1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v, want %v", got, data)
	}
}

func TestSparseCrossPageAccess(t *testing.T) {
	s := NewSparse(1 << 20)
	addr := int64(pageSize - 3) // straddles the first page boundary
	data := []byte{10, 20, 30, 40, 50, 60}
	if err := s.WriteBytes(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v, want %v", got, data)
	}
}

func TestSparseUnwrittenReadsZero(t *testing.T) {
	s := NewSparse(1 << 20)
	v, err := s.Read64(0x8000)
	if err != nil || v != 0 {
		t.Fatalf("Read64 = %d, %v; want 0, nil", v, err)
	}
	if len(s.pages) != 0 {
		t.Fatal("read allocated pages")
	}
}

func TestSparseBoundsChecked(t *testing.T) {
	s := NewSparse(1024)
	if err := s.WriteBytes(1020, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := s.Read32(-4); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := s.Read64(1021); err == nil {
		t.Fatal("straddling read accepted")
	}
	// addr+width overflows int64 for the last addresses: each access
	// must still fault, and no page may be mapped for it.
	buf := make([]byte, 4)
	for _, tc := range []struct {
		name   string
		access func() error
	}{
		{"Read32 at MaxInt64-1", func() error { _, err := s.Read32(math.MaxInt64 - 1); return err }},
		{"Read64 at MaxInt64-3", func() error { _, err := s.Read64(math.MaxInt64 - 3); return err }},
		{"Write32 at MaxInt64-1", func() error { return s.Write32(math.MaxInt64-1, 1) }},
		{"Write64 at MaxInt64-3", func() error { return s.Write64(math.MaxInt64-3, 1) }},
		{"ReadInto at MaxInt64-1", func() error { return s.ReadInto(math.MaxInt64-1, buf) }},
		{"WriteBytes at MaxInt64-1", func() error { return s.WriteBytes(math.MaxInt64-1, buf) }},
	} {
		if err := tc.access(); err == nil || !strings.HasPrefix(err.Error(), "mem: access") {
			t.Errorf("%s: err = %v, want a mem: access fault", tc.name, err)
		}
	}
	if len(s.pages) != 0 {
		t.Fatalf("refused accesses mapped %d pages", len(s.pages))
	}
}

func TestSparse32SignExtension(t *testing.T) {
	s := NewSparse(1 << 20)
	if err := s.Write32(64, -5); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read32(64)
	if err != nil || v != -5 {
		t.Fatalf("Read32 = %d, %v; want -5", v, err)
	}
}

// Property: a sequence of random writes then reads matches a flat
// reference buffer.
func TestSparseMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		const size = 1 << 18
		s := NewSparse(size)
		ref := make([]byte, size)
		for i := 0; i < 50; i++ {
			addr := int64(rng.Intn(size - 256))
			n := 1 + rng.Intn(255)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			if err := s.WriteBytes(addr, data); err != nil {
				return false
			}
			copy(ref[addr:], data)
		}
		for i := 0; i < 50; i++ {
			addr := int64(rng.Intn(size - 256))
			n := 1 + rng.Intn(255)
			got := make([]byte, n)
			if err := s.ReadBytes(addr, got); err != nil {
				return false
			}
			if !bytes.Equal(got, ref[addr:addr+int64(n)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// harness wires a memory into an engine, with a recording endpoint.
type memHarness struct {
	e   *sim.Engine
	net *noc.Network
	m   *Memory
	got []noc.Message // in (delivery cycle, send order)
	at  []sim.Cycle
	seq []int64
}

// DeliverAt files the message in delivery order, where a receiver that
// acts on its arrivals on their cycle would see it.
func (h *memHarness) DeliverAt(at sim.Cycle, seq int64, msg noc.Message) {
	i := len(h.at)
	for i > 0 && (h.at[i-1] > at || h.at[i-1] == at && h.seq[i-1] > seq) {
		i--
	}
	h.got = slices.Insert(h.got, i, msg)
	h.at = slices.Insert(h.at, i, at)
	h.seq = slices.Insert(h.seq, i, seq)
}

func (h *memHarness) Undelivered(now sim.Cycle) int {
	k := 0
	for _, at := range h.at {
		if at > now {
			k++
		}
	}
	return k
}

func newMemHarness(t *testing.T, cfg Config) *memHarness {
	t.Helper()
	h := &memHarness{e: sim.NewEngine()}
	h.net = noc.New(noc.Config{Buses: 4, BytesPerCyc: 8, HopLatency: 4})
	h.m = New(cfg, 100, h.net)
	h.m.Attach(h.e.Register(h.m))
	h.net.Register(100, h.m)
	h.net.Register(1, h)
	h.m.Fault = func(err error) { t.Fatalf("memory fault: %v", err) }
	return h
}

func (h *memHarness) runUntilQuiet(t *testing.T, deadline sim.Cycle) {
	t.Helper()
	_, err := h.e.Run(deadline)
	if _, isDeadlock := err.(*sim.ErrDeadlock); err != nil && !isDeadlock {
		t.Fatalf("Run: %v", err)
	}
}

func TestScalarReadLatency(t *testing.T) {
	cfg := DefaultConfig()
	h := newMemHarness(t, cfg)
	if err := h.m.Store().Write32(0x100, 77); err != nil {
		t.Fatal(err)
	}
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemRead32, A: 0x100, C: 9})
	h.runUntilQuiet(t, 10000)
	if len(h.got) != 1 {
		t.Fatalf("got %d responses, want 1", len(h.got))
	}
	resp := h.got[0]
	if resp.Kind != noc.KindMemReadResp || resp.B != 77 || resp.C != 9 {
		t.Fatalf("resp = %v", resp)
	}
	// Round trip >= request wire (2+4) + latency 150 + response wire.
	if h.at[0] < sim.Cycle(cfg.Latency) {
		t.Fatalf("response at %d, faster than memory latency %d", h.at[0], cfg.Latency)
	}
	if h.at[0] > sim.Cycle(cfg.Latency)+30 {
		t.Fatalf("response at %d, too slow for one access", h.at[0])
	}
}

// TestServiceCycleRule pins when a request is serviced, in terms of its
// delivery cycle (see Memory): the cycle after when the memory is idle,
// the delivery cycle itself when the memory is due on it for another
// reason — and then no tick of its own follows on the cycle after. The
// memory holds the request from the cycle it was sent, so every cycle
// here is one the memory chose from its own state.
func TestServiceCycleRule(t *testing.T) {
	// The harness network delivers a request 7 cycles after its Send
	// (grant +1, 2 cycles on the bus, 4 hops) and a read response 8
	// cycles after the memory sends it. Two ports, so that two requests
	// serviced on one cycle do not serialise and hide the rule.
	const reqLag, respLag, lat = 7, 8, 10
	read := noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemRead32, A: 0x40}
	for _, tc := range []struct {
		name      string
		sends     []sim.Cycle // Send cycles of the requests
		at        sim.Cycle   // delivery cycle of the last request
		servedAt  int64       // requests serviced once cycle `at` has run
		nextTick  sim.Cycle   // the memory's next scheduled cycle after it
		responses []sim.Cycle // cycles the client receives the responses
	}{
		// Idle memory: delivered at 7, serviced at 8.
		{"idle", []sim.Cycle{0}, reqLag, 0, reqLag + 1,
			[]sim.Cycle{reqLag + 1 + lat + respLag}},
		// A response to send on the delivery cycle: the first request is
		// serviced at 8, so its response is due at 18; the second is
		// delivered at 18, serviced at 18, and nothing runs at 19.
		{"response due", []sim.Cycle{0, 1 + lat}, reqLag + 1 + lat, 2, reqLag + 1 + 2*lat,
			[]sim.Cycle{reqLag + 1 + lat + respLag, reqLag + 1 + 2*lat + respLag}},
		// A service tick owed from a delivery on the cycle before:
		// delivered at 7 and 8, both serviced at 8, and nothing runs at 9.
		{"owed tick", []sim.Cycle{0, 1}, reqLag + 1, 2, reqLag + 1 + lat,
			[]sim.Cycle{reqLag + 1 + lat + respLag, reqLag + 1 + lat + respLag}},
		// Due on the cycle before the delivery: the memory sends the first
		// response at 18 with the second request in its inbox since 12 and
		// not delivered until 19. It leaves it alone — serviced at 20.
		{"due a cycle early", []sim.Cycle{0, 2 + lat}, reqLag + 2 + lat, 1, reqLag + 3 + lat,
			[]sim.Cycle{reqLag + 1 + lat + respLag, reqLag + 3 + 2*lat + respLag}},
	} {
		cfg := Config{SizeBytes: 1 << 20, Latency: lat, Ports: 2, PortWidth: 32, PacketBytes: 128}
		h := newMemHarness(t, cfg)
		for _, s := range tc.sends {
			h.net.Send(s, read)
		}
		if got := h.m.Undelivered(0); got != len(tc.sends) {
			t.Errorf("%s: the memory holds %d undelivered requests after the sends, want %d", tc.name, got, len(tc.sends))
		}
		h.e.RunUntil(tc.at + 1) // runs every cycle up to and including at
		if got := h.m.Stats().ScalarReads; got != tc.servedAt {
			t.Errorf("%s: %d requests serviced by cycle %d, want %d", tc.name, got, tc.at, tc.servedAt)
		}
		if got := h.m.Undelivered(tc.at); got != 0 {
			t.Errorf("%s: %d requests still undelivered at cycle %d", tc.name, got, tc.at)
		}
		if got := h.e.NextScheduled(h.m.handle.ID()); got != tc.nextTick {
			t.Errorf("%s: memory next scheduled at %d after cycle %d, want %d", tc.name, got, tc.at, tc.nextTick)
		}
		h.runUntilQuiet(t, 1000)
		if len(h.at) != len(tc.responses) {
			t.Fatalf("%s: %d responses, want %d", tc.name, len(h.at), len(tc.responses))
		}
		for i, want := range tc.responses {
			if h.at[i] != want {
				t.Errorf("%s: response %d at cycle %d, want %d", tc.name, i, h.at[i], want)
			}
		}
	}
}

// TestInboxOrderedByDeliveryCycle: requests reach the memory in send
// order but count in delivery order. A 128-byte block write sent at 0
// spends 18 cycles on its bus and is delivered at 23; a header-only READ
// sent at 1 takes another bus and is delivered at 8. The READ is
// serviced at 9, with the write still on its way; the write is serviced
// at 24 — each on the cycle after its own delivery.
func TestInboxOrderedByDeliveryCycle(t *testing.T) {
	const lat, readResp, ackLag = 10, 8, 7
	h := newMemHarness(t, Config{SizeBytes: 1 << 20, Latency: lat, Ports: 2, PortWidth: 32, PacketBytes: 128})
	if err := h.m.Store().Write32(0x40, 77); err != nil {
		t.Fatal(err)
	}
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockWrite, A: 0x1000, B: 1, C: 5,
		Data: bytes.Repeat([]byte{0xab}, 128)})
	h.net.Send(1, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemRead32, A: 0x40})

	h.e.RunUntil(10) // every cycle up to and including 9
	st := h.m.Stats()
	if st.ScalarReads != 1 || st.BytesWritten != 0 {
		t.Fatalf("by cycle 9: %d reads serviced, %d bytes written; want the READ serviced and the write not", st.ScalarReads, st.BytesWritten)
	}
	if got := h.m.Undelivered(9); got != 1 {
		t.Fatalf("at cycle 9 the memory holds %d undelivered requests, want the block write", got)
	}
	if dump := h.m.DumpState(); !strings.Contains(dump, "mem-block-write from 1 at 23") {
		t.Fatalf("DumpState does not show the block write under way: %s", dump)
	}
	if got, want := h.net.Stats(h.e.Now()).Messages, int64(1); got != want {
		t.Fatalf("at cycle %d the network counts %d messages delivered, want %d", h.e.Now(), got, want)
	}
	// Next: the READ's response at 9+lat, before the write's service tick.
	if got := h.e.NextScheduled(h.m.handle.ID()); got != 9+lat {
		t.Fatalf("memory next scheduled at %d, want %d", got, 9+lat)
	}

	h.runUntilQuiet(t, 1000)
	if len(h.got) != 2 || h.got[0].Kind != noc.KindMemReadResp || h.got[0].B != 77 ||
		h.got[1].Kind != noc.KindMemBlockAck || h.got[1].C != 5 {
		t.Fatalf("responses = %v", h.got)
	}
	if h.at[0] != 9+lat+readResp || h.at[1] != 24+lat+ackLag {
		t.Fatalf("READ response at %d, write ack at %d; want %d (serviced at 9) and %d (serviced at 24)",
			h.at[0], h.at[1], 9+lat+readResp, 24+lat+ackLag)
	}
	if got := h.net.Stats(h.at[1]).Messages; got != 4 {
		t.Fatalf("%d messages delivered by the ack's cycle, want 4", got)
	}
}

func TestScalarWriteIsFunctional(t *testing.T) {
	h := newMemHarness(t, DefaultConfig())
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemWrite32, A: 0x80, B: -123})
	h.runUntilQuiet(t, 10000)
	v, err := h.m.Store().Read32(0x80)
	if err != nil || v != -123 {
		t.Fatalf("stored %d, %v; want -123", v, err)
	}
	if h.m.Stats().ScalarWrites != 1 {
		t.Fatalf("stats = %+v", h.m.Stats())
	}
}

func TestBlockReadStreamsPackets(t *testing.T) {
	cfg := DefaultConfig()
	h := newMemHarness(t, cfg)
	want := make([]byte, 300)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := h.m.Store().WriteBytes(0x2000, want); err != nil {
		t.Fatal(err)
	}
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockRead, A: 0x2000, B: 300, C: 5})
	h.runUntilQuiet(t, 100000)
	// ceil(300/128) = 3 packets.
	if len(h.got) != 3 {
		t.Fatalf("got %d packets, want 3", len(h.got))
	}
	buf := make([]byte, 300)
	lastSeen := false
	for _, p := range h.got {
		if p.Kind != noc.KindMemBlockData || p.C != 5 {
			t.Fatalf("packet = %v", p)
		}
		copy(buf[p.D:], p.Data)
		if p.B == 1 {
			lastSeen = true
		}
	}
	if !lastSeen {
		t.Fatal("no packet marked last")
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reassembled data differs")
	}
}

func TestBlockWriteAcksOnce(t *testing.T) {
	h := newMemHarness(t, DefaultConfig())
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockWrite,
		A: 0x3000, C: 8, D: 0, Data: []byte{1, 2, 3, 4}})
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockWrite,
		A: 0x3004, B: 1, C: 8, D: 4, Data: []byte{5, 6, 7, 8}})
	h.runUntilQuiet(t, 100000)
	acks := 0
	for _, g := range h.got {
		if g.Kind == noc.KindMemBlockAck && g.C == 8 {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("acks = %d, want 1", acks)
	}
	got := make([]byte, 8)
	if err := h.m.Store().ReadBytes(0x3000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("memory content %v", got)
	}
}

func TestSinglePortSerialisesServicing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Latency = 10
	h := newMemHarness(t, cfg)
	// Two block reads of 512B each: 4 packets x 4 cycles port occupancy.
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockRead, A: 0, B: 512, C: 1})
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemBlockRead, A: 4096, B: 512, C: 2})
	h.runUntilQuiet(t, 100000)
	if h.m.Stats().PortBusy != 2*4*4 {
		t.Fatalf("PortBusy = %d, want 32", h.m.Stats().PortBusy)
	}
}

func TestFaultOnBadAccess(t *testing.T) {
	h := newMemHarness(t, DefaultConfig())
	var fault error
	h.m.Fault = func(err error) { fault = err }
	h.net.Send(0, noc.Message{Src: 1, Dst: 100, Kind: noc.KindMemRead32, A: -8})
	h.runUntilQuiet(t, 10000)
	if fault == nil || !strings.Contains(fault.Error(), "outside") {
		t.Fatalf("fault = %v", fault)
	}
}

func TestReaderAdapter(t *testing.T) {
	s := NewSparse(1 << 16)
	if err := s.Write32(16, 42); err != nil {
		t.Fatal(err)
	}
	r := Reader{S: s}
	if r.Read32(16) != 42 {
		t.Fatal("Read32 through adapter")
	}
	if r.Read32(-100) != 0 {
		t.Fatal("bad address should read zero through adapter")
	}
}
