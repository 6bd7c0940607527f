package mfc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ls"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// rig wires an MFC, a local store and a memory, talking over a network,
// into an engine.
type rig struct {
	e     *sim.Engine
	net   *noc.Network
	m     *mem.Memory
	store *ls.LocalStore
	mfc   *Engine
	tags  []int64
	tagAt []sim.Cycle
}

// newRig accepts a nil t for use inside property functions (which replace
// the fault handlers themselves).
func newRig(t *testing.T, mfcCfg Config, memCfg mem.Config) *rig {
	if t != nil {
		t.Helper()
	}
	r := &rig{e: sim.NewEngine()}
	r.net = noc.New(noc.DefaultConfig())
	r.m = mem.New(memCfg, 100, r.net)
	r.m.Attach(r.e.Register(r.m))
	r.net.Register(100, r.m)
	r.store = ls.New(ls.DefaultConfig())
	r.mfc = New(mfcCfg, 1, 100, r.net, r.store)
	r.mfc.Attach(r.e.Register(r.mfc))
	r.net.Register(1, r.mfc)
	r.mfc.OnTagIdle = func(now sim.Cycle, tag int64) {
		r.tags = append(r.tags, tag)
		r.tagAt = append(r.tagAt, now)
	}
	if t != nil {
		r.mfc.Fault = func(err error) { t.Fatalf("mfc fault: %v", err) }
		r.m.Fault = func(err error) { t.Fatalf("mem fault: %v", err) }
	}
	return r
}

func (r *rig) run(t *testing.T, limit sim.Cycle) {
	t.Helper()
	_, err := r.e.Run(limit)
	if _, isDeadlock := err.(*sim.ErrDeadlock); err != nil && !isDeadlock {
		t.Fatalf("Run: %v", err)
	}
}

func (r *rig) get(now sim.Cycle, lsa, ea, size, tag int64) {
	r.mfc.WriteChannel(ChLSA, lsa)
	r.mfc.WriteChannel(ChEA, ea)
	r.mfc.WriteChannel(ChSize, size)
	r.mfc.WriteChannel(ChTag, tag)
	if !r.mfc.Enqueue(now, Get) {
		panic("queue full in test setup")
	}
}

func TestGetTransfersDataAndNotifiesTag(t *testing.T) {
	r := newRig(t, DefaultConfig(), mem.DefaultConfig())
	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i)
	}
	if err := r.m.Store().WriteBytes(0x4000, want); err != nil {
		t.Fatal(err)
	}
	r.get(0, 0x8000, 0x4000, 1000, 3)
	r.run(t, 100000)

	got := make([]byte, 1000)
	if err := r.store.ReadBytes(0x8000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("transferred data differs")
	}
	if len(r.tags) != 1 || r.tags[0] != 3 {
		t.Fatalf("tag notifications = %v", r.tags)
	}
	if r.mfc.Outstanding(3) != 0 {
		t.Fatal("tag still outstanding after completion")
	}
	st := r.mfc.Stats()
	if st.Gets != 1 || st.BytesIn != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetLatencyIncludesCommandLatency(t *testing.T) {
	cfg := DefaultConfig()
	memCfg := mem.DefaultConfig()
	r := newRig(t, cfg, memCfg)
	r.get(0, 0, 0, 64, 1)
	r.run(t, 100000)
	if len(r.tagAt) != 1 {
		t.Fatalf("tag notifications = %v", r.tagAt)
	}
	// Lower bound: command latency + memory latency.
	min := sim.Cycle(cfg.CmdLatency + memCfg.Latency)
	if r.tagAt[0] < min {
		t.Fatalf("completed at %d, faster than %d", r.tagAt[0], min)
	}
	// And not wildly slower (one 64B packet).
	if r.tagAt[0] > min+60 {
		t.Fatalf("completed at %d, too slow (bound %d)", r.tagAt[0], min+60)
	}
}

func TestPutWritesBackToMemory(t *testing.T) {
	r := newRig(t, DefaultConfig(), mem.DefaultConfig())
	want := make([]byte, 400)
	for i := range want {
		want[i] = byte(255 - i)
	}
	if err := r.store.WriteBytes(0x1000, want); err != nil {
		t.Fatal(err)
	}
	r.mfc.WriteChannel(ChLSA, 0x1000)
	r.mfc.WriteChannel(ChEA, 0x9000)
	r.mfc.WriteChannel(ChSize, 400)
	r.mfc.WriteChannel(ChTag, 7)
	if !r.mfc.Enqueue(0, Put) {
		t.Fatal("enqueue failed")
	}
	r.run(t, 100000)
	got := make([]byte, 400)
	if err := r.m.Store().ReadBytes(0x9000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("put data differs")
	}
	if len(r.tags) != 1 || r.tags[0] != 7 {
		t.Fatalf("tags = %v", r.tags)
	}
	if r.mfc.Stats().BytesOut != 400 {
		t.Fatalf("stats = %+v", r.mfc.Stats())
	}
}

func TestQueueFullRejectsEnqueue(t *testing.T) {
	cfg := Config{QueueSize: 2, CmdLatency: 30, PacketBytes: 128}
	r := newRig(t, cfg, mem.DefaultConfig())
	r.mfc.WriteChannel(ChSize, 64)
	if !r.mfc.Enqueue(0, Get) || !r.mfc.Enqueue(0, Get) {
		t.Fatal("first two enqueues should succeed")
	}
	if r.mfc.Enqueue(0, Get) {
		t.Fatal("third enqueue should fail on a 2-deep queue")
	}
	if r.mfc.Stats().QueueFull != 1 {
		t.Fatalf("QueueFull = %d", r.mfc.Stats().QueueFull)
	}
	r.run(t, 100000)
	// After draining, there is room again.
	if !r.mfc.Enqueue(r.e.Now(), Get) {
		t.Fatal("enqueue after drain failed")
	}
}

func TestTagGroupWithMultipleCommands(t *testing.T) {
	r := newRig(t, DefaultConfig(), mem.DefaultConfig())
	r.get(0, 0x0000, 0x1000, 256, 5)
	r.get(0, 0x2000, 0x5000, 256, 5)
	r.get(0, 0x4000, 0x9000, 64, 6)
	r.run(t, 100000)
	// Two notifications: tag 5 once (after both), tag 6 once.
	if len(r.tags) != 2 {
		t.Fatalf("tags = %v", r.tags)
	}
	seen := map[int64]int{}
	for _, tag := range r.tags {
		seen[tag]++
	}
	if seen[5] != 1 || seen[6] != 1 {
		t.Fatalf("tag counts = %v", seen)
	}
}

func TestCommandsProcessSequentially(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, mem.DefaultConfig())
	r.get(0, 0x0000, 0x1000, 64, 1)
	r.get(0, 0x1000, 0x2000, 64, 2)
	r.run(t, 100000)
	if len(r.tagAt) != 2 {
		t.Fatalf("completions = %v", r.tagAt)
	}
	// The second command pays its own command latency after the first
	// leaves the head: completions at least CmdLatency apart is too
	// strong (memory pipelining), but the second must finish later.
	if r.tagAt[1] <= r.tagAt[0] {
		t.Fatalf("completions not ordered: %v", r.tagAt)
	}
}

func TestFaultOnZeroSize(t *testing.T) {
	r := newRig(t, DefaultConfig(), mem.DefaultConfig())
	var fault error
	r.mfc.Fault = func(err error) { fault = err }
	r.mfc.WriteChannel(ChSize, 0)
	r.mfc.Enqueue(0, Get)
	if fault == nil {
		t.Fatal("zero-size command did not fault")
	}
}

// Property: random GET transfers always produce LS contents equal to the
// memory source region.
func TestGetMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		r := newRig(nil, DefaultConfig(), mem.DefaultConfig())
		// suppress t.Fatalf-based faults in property mode
		ok := true
		r.mfc.Fault = func(err error) { ok = false }
		r.m.Fault = func(err error) { ok = false }
		n := 3
		type xfer struct {
			lsa, ea, size int64
		}
		var xs []xfer
		lsa := int64(0)
		for i := 0; i < n; i++ {
			size := int64(1 + rng.Intn(2000))
			ea := int64(rng.Intn(1 << 20))
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			if err := r.m.Store().WriteBytes(ea, data); err != nil {
				return false
			}
			r.get(0, lsa, ea, size, int64(i))
			xs = append(xs, xfer{lsa, ea, size})
			lsa += (size + 63) &^ 15
		}
		if _, err := r.e.Run(1_000_000); err != nil {
			if _, isDeadlock := err.(*sim.ErrDeadlock); !isDeadlock {
				return false
			}
		}
		for _, x := range xs {
			a := make([]byte, x.size)
			b := make([]byte, x.size)
			if r.store.ReadBytes(x.lsa, a) != nil || r.m.Store().ReadBytes(x.ea, b) != nil {
				return false
			}
			if !bytes.Equal(a, b) {
				return false
			}
		}
		return ok && len(r.tags) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
