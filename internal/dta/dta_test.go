package dta

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ls"
	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/sim"
)

// Endpoint layout for the test rig.
const (
	epLSE0 = 0
	epLSE1 = 1
	epDSE  = 10
	epPPE  = 20
)

// rig wires two LSEs, one DSE and a PPE sink.
type rig struct {
	e       *sim.Engine
	net     *noc.Network
	lses    [2]*LSE
	stores  [2]*ls.LocalStore
	dse     *DSE
	prog    *program.Program
	mailbox []int64

	fallocs map[int64]int64 // reqID -> fp
	works   [2]int          // OnWork calls per LSE
}

// ppeSink logs mailbox posts in send order, at the hand-over.
type ppeSink struct {
	r  *rig
	at []sim.Cycle // delivery cycles
}

func (p *ppeSink) DeliverAt(at sim.Cycle, _ int64, m noc.Message) {
	if m.Kind != noc.KindMailboxPost {
		panic("ppe got " + m.String())
	}
	p.r.mailbox = append(p.r.mailbox, m.B)
	p.at = append(p.at, at)
}

func (p *ppeSink) Undelivered(now sim.Cycle) int {
	k := 0
	for _, at := range p.at {
		if at > now {
			k++
		}
	}
	return k
}

// testProgram: template 0 has no PF block, template 1 has one (with a
// 64-byte prefetch reservation).
func testProgram(t testing.TB) *program.Program {
	b := program.NewBuilder("dtatest")
	plain := b.Template("plain")
	plain.PL().Load(program.R(1), 0)
	plain.PS().Ffree().Stop()
	withPF := b.Template("withpf")
	withPF.Block(program.PF).Nop()
	withPF.PL().Load(program.R(1), 0)
	withPF.PS().Ffree().Stop()
	b.Entry(plain, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build test program: %v", err)
	}
	p.Templates[1].PrefetchBytes = 64
	return p
}

func newRig(t testing.TB, cfg LSEConfig, heapBytes int) *rig {
	r := &rig{e: sim.NewEngine(), fallocs: map[int64]int64{}}
	r.prog = testProgram(t)
	r.net = noc.New(noc.DefaultConfig())
	lseEP := func(spe int) int { return spe } // epLSE0/1 == spe index
	for i := 0; i < 2; i++ {
		i := i
		r.stores[i] = ls.New(ls.DefaultConfig())
		alloc := ls.NewAllocator(64*1024, heapBytes)
		r.lses[i] = NewLSE(cfg, i, i, epDSE, epPPE, r.net, r.stores[i], alloc, 16*1024, r.prog, lseEP)
		r.lses[i].Attach(r.e.Register(r.lses[i]))
		r.net.Register(i, r.lses[i])
		r.lses[i].OnFallocResp = func(now sim.Cycle, reqID, fp int64) { r.fallocs[reqID] = fp }
		r.lses[i].OnWork = func(now sim.Cycle) { r.works[i]++ }
		r.lses[i].Fault = func(err error) { t.Fatalf("lse fault: %v", err) }
	}
	r.dse = NewDSE(DefaultDSEConfig(), epDSE, 0, r.net, []int{epLSE0, epLSE1}, cfg.NumFrames, nil)
	r.dse.Attach(r.e.Register(r.dse))
	r.net.Register(epDSE, r.dse)
	r.net.Register(epPPE, &ppeSink{r: r})
	return r
}

// runQuiet advances until the rig is idle (deadlock = drained) or limit.
func (r *rig) runQuiet(t testing.TB, limit sim.Cycle) {
	_, err := r.e.Run(r.e.Now() + limit)
	if err == nil {
		return
	}
	if _, ok := err.(*sim.ErrDeadlock); !ok {
		t.Fatalf("Run: %v", err)
	}
}

func TestFallocRoundTrip(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	r.lses[0].RequestFalloc(0, 0, 2, 100)
	r.runQuiet(t, 1000)
	fp, ok := r.fallocs[100]
	if !ok {
		t.Fatal("no falloc response")
	}
	if !IsFP(fp) || IsVFP(fp) {
		t.Fatalf("fp = %s", FPString(fp))
	}
	spe, slot, err := SplitFP(fp)
	if err != nil || slot < 0 {
		t.Fatalf("split: %d %d %v", spe, slot, err)
	}
	if r.lses[spe].slots[slot] == nil {
		t.Fatal("no thread allocated at FP")
	}
	if got := r.lses[spe].slots[slot].SC; got != 2 {
		t.Fatalf("SC = %d, want 2", got)
	}
}

func TestDSELoadBalancesAcrossLSEs(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	for i := int64(0); i < 8; i++ {
		r.lses[0].RequestFalloc(0, 0, 1, i)
	}
	r.runQuiet(t, 5000)
	if len(r.fallocs) != 8 {
		t.Fatalf("responses = %d, want 8", len(r.fallocs))
	}
	perSPE := map[int]int{}
	for _, fp := range r.fallocs {
		spe, _, _ := SplitFP(fp)
		perSPE[spe]++
	}
	if perSPE[0] != 4 || perSPE[1] != 4 {
		t.Fatalf("distribution = %v, want 4/4", perSPE)
	}
}

// alloc allocates a frame of template tmpl with sc and returns its FP.
func (r *rig) alloc(t testing.TB, tmpl, sc int, reqID int64) int64 {
	r.lses[0].RequestFalloc(r.e.Now(), tmpl, sc, reqID)
	r.runQuiet(t, 2000)
	fp, ok := r.fallocs[reqID]
	if !ok {
		t.Fatalf("no response for req %d", reqID)
	}
	return fp
}

func TestSCCountdownMakesThreadReady(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	fp := r.alloc(t, 0, 3, 1)
	spe, slot, _ := SplitFP(fp)
	th := r.lses[spe].slots[slot]

	for i := 0; i < 3; i++ {
		if th.State != StateWaitStores {
			t.Fatalf("state after %d stores = %s", i, th.State)
		}
		r.lses[0].StoreTo(r.e.Now(), fp, i, int64(100+i))
		r.runQuiet(t, 1000)
	}
	if th.State != StateReady {
		t.Fatalf("state = %s, want ready", th.State)
	}
	// Frame contents landed in the owner's local store.
	for i := 0; i < 3; i++ {
		v, err := r.stores[spe].Read64(r.lses[spe].FrameAddr(slot) + int64(i)*8)
		if err != nil || v != int64(100+i) {
			t.Fatalf("frame[%d] = %d, %v", i, v, err)
		}
	}
	// Dispatch works.
	got, kind := r.lses[spe].NextWork(r.e.Now())
	if got != th || kind != WorkThread {
		t.Fatalf("NextWork = %v, %v", got, kind)
	}
	if th.State != StateRunning {
		t.Fatalf("state = %s, want running", th.State)
	}
}

// Property: any permutation of SC stores readies the thread exactly once
// after the last store.
func TestSCAnyOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		r := newRig(t, DefaultLSEConfig(), 4096)
		sc := 2 + rng.Intn(6)
		fp := r.alloc(t, 0, sc, 1)
		spe, slot, _ := SplitFP(fp)
		th := r.lses[spe].slots[slot]
		order := rng.Intn(2) // 0: from lse0, 1: alternate
		for i := 0; i < sc; i++ {
			src := 0
			if order == 1 {
				src = i % 2
			}
			if th.State == StateReady {
				return false // ready too early
			}
			r.lses[src].StoreTo(r.e.Now(), fp, i, int64(i))
			r.runQuiet(t, 2000)
		}
		return th.State == StateReady && th.SC == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteStoreRouting(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	// Allocate until we land a frame on SPE 1.
	var fp int64
	for i := int64(0); ; i++ {
		fp = r.alloc(t, 0, 1, i)
		if spe, _, _ := SplitFP(fp); spe == 1 {
			break
		}
		if i > 4 {
			t.Fatal("never allocated on SPE 1")
		}
	}
	// Store issued on SPE 0 must cross the network.
	r.lses[0].StoreTo(r.e.Now(), fp, 0, 777)
	r.runQuiet(t, 2000)
	spe, slot, _ := SplitFP(fp)
	if r.lses[spe].slots[slot].State != StateReady {
		t.Fatalf("state = %s", r.lses[spe].slots[slot].State)
	}
	if r.lses[0].Stats().RemoteStores == 0 {
		t.Fatal("store did not count as remote")
	}
	v, _ := r.stores[1].Read64(r.lses[1].FrameAddr(slot))
	if v != 777 {
		t.Fatalf("frame value = %d", v)
	}
}

func TestMailboxPostReachesPPE(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	r.lses[0].StoreTo(0, MailboxFP, 0, 4242)
	r.runQuiet(t, 1000)
	if len(r.mailbox) != 1 || r.mailbox[0] != 4242 {
		t.Fatalf("mailbox = %v", r.mailbox)
	}
}

func TestPFPathAllocatesBufferAndWaitsDMA(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	outstanding := 1
	r.lses[0].Outstanding = func(tag int64) int { return outstanding }
	r.lses[1].Outstanding = func(tag int64) int { return outstanding }

	fp := r.alloc(t, 1, 1, 1) // template 1 has a PF block
	spe, slot, _ := SplitFP(fp)
	lse := r.lses[spe]
	th := lse.slots[slot]
	r.lses[0].StoreTo(r.e.Now(), fp, 0, 1)
	r.runQuiet(t, 2000)

	if th.State != StateProgramDMA {
		t.Fatalf("state = %s, want program-dma", th.State)
	}
	if th.BufBytes != 64 || th.BufAddr == 0 {
		t.Fatalf("buffer = %#x/%d", th.BufAddr, th.BufBytes)
	}
	got, kind := lse.NextWork(r.e.Now())
	if got != th || kind != WorkPF {
		t.Fatalf("NextWork = %v, %v", got, kind)
	}
	// PF block done with DMA outstanding: thread parks in WaitDMA.
	lse.PFDone(r.e.Now(), th)
	if th.State != StateWaitDMA {
		t.Fatalf("state = %s, want wait-dma", th.State)
	}
	// Tag drains: thread becomes ready.
	outstanding = 0
	lse.TagIdle(r.e.Now(), th.Seq)
	if th.State != StateReady {
		t.Fatalf("state = %s, want ready", th.State)
	}
}

func TestPFDoneWithNoOutstandingGoesStraightReady(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	r.lses[0].Outstanding = func(tag int64) int { return 0 }
	r.lses[1].Outstanding = func(tag int64) int { return 0 }
	fp := r.alloc(t, 1, 1, 1)
	spe, slot, _ := SplitFP(fp)
	lse := r.lses[spe]
	th := lse.slots[slot]
	r.lses[0].StoreTo(r.e.Now(), fp, 0, 1)
	r.runQuiet(t, 2000)
	lse.NextWork(r.e.Now())
	lse.PFDone(r.e.Now(), th)
	if th.State != StateReady {
		t.Fatalf("state = %s, want ready", th.State)
	}
}

func TestPrefetchHeapExhaustionQueuesThread(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 64) // room for exactly one 64B buffer
	r.lses[0].Outstanding = func(tag int64) int { return 0 }
	r.lses[1].Outstanding = func(tag int64) int { return 0 }

	// Two PF threads on (potentially) the same LSE. Force same LSE by
	// filling: both land wherever DSE sends them; to make it
	// deterministic allocate both and drive the one that shares an LSE.
	fpA := r.alloc(t, 1, 1, 1)
	speA, slotA, _ := SplitFP(fpA)
	// Allocate on the same SPE by requesting until it matches.
	var fpB int64
	for i := int64(2); ; i++ {
		fpB = r.alloc(t, 1, 1, i)
		if spe, _, _ := SplitFP(fpB); spe == speA {
			break
		}
		if i > 6 {
			t.Fatal("never matched SPE")
		}
	}
	_, slotB, _ := SplitFP(fpB)
	lse := r.lses[speA]
	r.lses[0].StoreTo(r.e.Now(), fpA, 0, 1)
	r.lses[0].StoreTo(r.e.Now(), fpB, 0, 1)
	r.runQuiet(t, 3000)

	thA, thB := lse.slots[slotA], lse.slots[slotB]
	if thA.State != StateProgramDMA {
		t.Fatalf("A state = %s", thA.State)
	}
	if thB.State != StateWaitBuffer {
		t.Fatalf("B state = %s, want wait-buffer", thB.State)
	}
	if lse.Stats().BufferWaits != 1 {
		t.Fatalf("BufferWaits = %d", lse.Stats().BufferWaits)
	}
	// Run A to completion: B gets the freed buffer.
	lse.NextWork(r.e.Now())
	lse.PFDone(r.e.Now(), thA)
	lse.NextWork(r.e.Now()) // dispatch A as thread
	lse.ThreadDone(r.e.Now(), thA)
	r.runQuiet(t, 2000)
	if thB.State != StateProgramDMA {
		t.Fatalf("B state after free = %s, want program-dma", thB.State)
	}
}

func TestFrameReuseAfterFree(t *testing.T) {
	cfg := DefaultLSEConfig()
	cfg.NumFrames = 1 // one frame per LSE: two allocs fill the node
	r := newRig(t, cfg, 4096)
	fp1 := r.alloc(t, 0, 1, 1)
	fp2 := r.alloc(t, 0, 1, 2)
	_, _ = fp1, fp2
	// Third request stalls at the DSE.
	r.lses[0].RequestFalloc(r.e.Now(), 0, 1, 3)
	r.runQuiet(t, 2000)
	if _, ok := r.fallocs[3]; ok {
		t.Fatal("third falloc satisfied with full node")
	}
	// Completing thread 1 frees its frame and unblocks the queue.
	spe, slot, _ := SplitFP(fp1)
	th := r.lses[spe].slots[slot]
	r.lses[spe].StoreTo(r.e.Now(), fp1, 0, 5)
	r.runQuiet(t, 2000)
	r.lses[spe].NextWork(r.e.Now())
	r.lses[spe].ThreadDone(r.e.Now(), th)
	r.runQuiet(t, 3000)
	if _, ok := r.fallocs[3]; !ok {
		t.Fatal("freed frame did not unblock pending falloc")
	}
}

func TestVirtualFPImmediateResponseAndBuffering(t *testing.T) {
	cfg := DefaultLSEConfig()
	cfg.VirtualFP = true
	r := newRig(t, cfg, 4096)
	// Request and store in the same cycle burst: with VFP the response
	// arrives without any DSE round trip, so the store targets an
	// unbound VFP and must be buffered.
	r.lses[0].RequestFalloc(0, 0, 1, 1)
	// Process only a few cycles: enough for the local response, not for
	// the DSE round trip.
	_, _ = r.e.Run(3)
	fp, ok := r.fallocs[1]
	if !ok {
		t.Fatal("VFP response not immediate")
	}
	if !IsVFP(fp) {
		t.Fatalf("fp = %s, want virtual", FPString(fp))
	}
	r.lses[0].StoreTo(r.e.Now(), fp, 0, 999)
	r.runQuiet(t, 3000)
	if r.lses[0].Stats().VFPBuffered == 0 {
		t.Fatal("store was not buffered while unbound")
	}
	if r.lses[0].Stats().VFPBinds != 1 {
		t.Fatalf("binds = %d", r.lses[0].Stats().VFPBinds)
	}
	// After binding and flushing, the physical thread must be ready.
	ready := false
	for _, l := range r.lses {
		for _, th := range l.slots {
			if th != nil && th.State == StateReady {
				ready = true
			}
		}
	}
	if !ready {
		t.Fatal("buffered store never reached the physical frame")
	}
}

func TestVFPReleaseOnThreadDone(t *testing.T) {
	cfg := DefaultLSEConfig()
	cfg.VirtualFP = true
	r := newRig(t, cfg, 4096)
	fp := r.alloc(t, 0, 1, 1)
	if !IsVFP(fp) {
		t.Fatalf("fp = %s", FPString(fp))
	}
	r.lses[0].StoreTo(r.e.Now(), fp, 0, 1)
	r.runQuiet(t, 3000)
	// Find the physical thread and complete it.
	var th *Thread
	var owner *LSE
	for _, l := range r.lses {
		for _, cand := range l.slots {
			if cand != nil {
				th, owner = cand, l
			}
		}
	}
	if th == nil {
		t.Fatal("no physical thread")
	}
	owner.NextWork(r.e.Now())
	owner.ThreadDone(r.e.Now(), th)
	r.runQuiet(t, 2000)
	if len(r.lses[0].vfps) != 0 {
		t.Fatalf("VFP table not released: %d entries", len(r.lses[0].vfps))
	}
}

func TestStoreFaults(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	var fault error
	r.lses[0].Fault = func(err error) { fault = err }
	// Store to a slot that was never allocated.
	r.lses[0].StoreTo(0, MakeFP(0, 5), 0, 1)
	r.runQuiet(t, 1000)
	if fault == nil || !strings.Contains(fault.Error(), "unallocated") {
		t.Fatalf("fault = %v", fault)
	}
}

func TestStoreToNonFPFaults(t *testing.T) {
	r := newRig(t, DefaultLSEConfig(), 4096)
	var fault error
	r.lses[0].Fault = func(err error) { fault = err }
	r.lses[0].StoreTo(0, 12345, 0, 1)
	r.runQuiet(t, 1000)
	if fault == nil || !strings.Contains(fault.Error(), "non-FP") {
		t.Fatalf("fault = %v", fault)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := DefaultLSEConfig()
	cfg.InboxCap = 2
	r := newRig(t, cfg, 4096)
	if !r.lses[0].CanAccept(0) {
		t.Fatal("fresh LSE should accept")
	}
	r.lses[0].StoreTo(0, MailboxFP, 0, 1)
	r.lses[0].StoreTo(0, MailboxFP, 1, 2)
	if r.lses[0].CanAccept(0) {
		t.Fatal("full inbox should refuse")
	}
	r.runQuiet(t, 1000)
	if !r.lses[0].CanAccept(r.e.Now()) {
		t.Fatal("drained inbox should accept again")
	}
}

// TestArrivalAheadOfSameCycleStore: a frame store delivered at cycle t
// to an LSE that does not tick at t (it wakes for t+1) still goes ahead
// of an SPU StoreTo made at t: in the inbox, in MaxInbox and against
// the inbox capacity.
func TestArrivalAheadOfSameCycleStore(t *testing.T) {
	// held returns a rig whose LSE 0 holds a frame store to the mailbox,
	// delivered at the returned cycle and not taken yet.
	held := func(inboxCap int) (*rig, sim.Cycle) {
		cfg := DefaultLSEConfig()
		cfg.InboxCap = inboxCap
		r := newRig(t, cfg, 4096)
		l := r.lses[0]
		r.net.Send(0, noc.Message{Src: epLSE1, Dst: epLSE0, Kind: noc.KindFrameStore, A: MailboxFP, B: 111, C: 0})
		at := l.arrivals.Earliest()
		r.e.RunUntil(at)
		if l.arrivals.Len() != 1 || l.Undelivered(at-1) != 1 || l.Undelivered(at) != 0 {
			t.Fatalf("at %d: arrivals %d, undelivered %d before and %d on the delivery cycle; want the store held, delivered at %d",
				r.e.Now(), l.arrivals.Len(), l.Undelivered(at-1), l.Undelivered(at), at)
		}
		return r, at
	}

	r, at := held(8)
	l := r.lses[0]
	l.StoreTo(at, MailboxFP, 1, 222)
	if live := l.inbox[l.inboxHead:]; len(live) != 2 || live[0].kind != itemNet || live[1].kind != itemStore {
		t.Fatalf("inbox %+v, want the delivered store ahead of the SPU's", live)
	}
	if got := l.Stats().MaxInbox; got != 2 {
		t.Fatalf("MaxInbox %d, want 2", got)
	}
	r.runQuiet(t, 1000)
	if len(r.mailbox) != 2 || r.mailbox[0] != 111 || r.mailbox[1] != 222 {
		t.Fatalf("mailbox %v, want [111 222]", r.mailbox)
	}

	r, at = held(1)
	if !r.lses[0].CanAccept(at - 1) {
		t.Fatal("an undelivered message counts against the inbox")
	}
	if r.lses[0].CanAccept(at) {
		t.Fatal("a message delivered this cycle does not count against the inbox")
	}
}

func TestFPEncoding(t *testing.T) {
	fp := MakeFP(3, 17)
	spe, slot, err := SplitFP(fp)
	if err != nil || spe != 3 || slot != 17 {
		t.Fatalf("SplitFP = %d,%d,%v", spe, slot, err)
	}
	if IsVFP(fp) || IsMailbox(fp) || !IsFP(fp) {
		t.Fatal("FP misclassified")
	}
	v := MakeVFP(2, 9)
	if !IsVFP(v) {
		t.Fatal("VFP not recognised")
	}
	if IsFP(0) || IsFP(12345) {
		t.Fatal("plain integers classified as FP")
	}
	if !IsMailbox(MailboxFP) {
		t.Fatal("mailbox not recognised")
	}
	if _, _, err := SplitFP(99); err == nil {
		t.Fatal("SplitFP accepted non-FP")
	}
	if !strings.Contains(FPString(v), "VFP") {
		t.Fatalf("FPString = %s", FPString(v))
	}
}

func TestMultiNodeForwarding(t *testing.T) {
	// Two DSEs, one LSE each, one frame each. Node 0 full -> forward to
	// node 1.
	e := sim.NewEngine()
	net := noc.New(noc.DefaultConfig())
	prog := testProgram(t)
	const (
		ep0, ep1       = 0, 1
		dse0ID, dse1ID = 10, 11
		ppeID          = 20
	)
	fallocs := map[int64]int64{}
	mkLSE := func(id, spe, dseID int) *LSE {
		cfg := DefaultLSEConfig()
		cfg.NumFrames = 1
		store := ls.New(ls.DefaultConfig())
		alloc := ls.NewAllocator(64*1024, 4096)
		l := NewLSE(cfg, id, spe, dseID, ppeID, net, store, alloc, 16*1024, prog,
			func(spe int) int { return spe })
		l.Attach(e.Register(l))
		net.Register(id, l)
		l.OnFallocResp = func(now sim.Cycle, reqID, fp int64) { fallocs[reqID] = fp }
		return l
	}
	lse0 := mkLSE(ep0, 0, dse0ID)
	mkLSE(ep1, 1, dse1ID)
	dse0 := NewDSE(DefaultDSEConfig(), dse0ID, 0, net, []int{ep0}, 1, []int{dse1ID})
	dse0.Attach(e.Register(dse0))
	net.Register(dse0ID, dse0)
	dse1 := NewDSE(DefaultDSEConfig(), dse1ID, 1, net, []int{ep1}, 1, []int{dse0ID})
	dse1.Attach(e.Register(dse1))
	net.Register(dse1ID, dse1)
	net.Register(ppeID, &nullEP{})

	lse0.RequestFalloc(0, 0, 1, 1)
	lse0.RequestFalloc(0, 0, 1, 2)
	if _, err := e.Run(5000); err != nil {
		if _, ok := err.(*sim.ErrDeadlock); !ok {
			t.Fatalf("Run: %v", err)
		}
	}
	if len(fallocs) != 2 {
		t.Fatalf("fallocs = %v", fallocs)
	}
	spes := map[int]bool{}
	for _, fp := range fallocs {
		spe, _, _ := SplitFP(fp)
		spes[spe] = true
	}
	if !spes[0] || !spes[1] {
		t.Fatalf("frames not spread across nodes: %v", spes)
	}
	if dse0.Stats().Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", dse0.Stats().Forwards)
	}
}

type nullEP struct{}

func (nullEP) DeliverAt(sim.Cycle, int64, noc.Message) {}
func (nullEP) Undelivered(sim.Cycle) int               { return 0 }
