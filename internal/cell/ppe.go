package cell

import (
	"fmt"
	"sort"

	"repro/internal/noc"
	"repro/internal/sim"
)

// PPE is the Power Processing Element stand-in: it offloads the TLP
// activity (allocates the root thread's frame and stores its arguments)
// and collects completion tokens from the mailbox. The paper's PPE does
// exactly this for DTA workloads; no PowerPC pipeline is modelled.
type PPE struct {
	id     int
	dseID  int
	lseEP  func(spe int) int
	net    *noc.Network
	eng    *sim.Engine
	handle *sim.Handle

	entryTemplate int
	args          []int64
	expect        int

	// arrivals holds the messages sent to the PPE, by (delivery cycle,
	// send order), until its tick on that cycle.
	arrivals noc.MsgHeap
	started  bool
	rootFP   int64
	tokens   map[int64]int64 // slot -> value
	order    []int64         // arrival order of slots
	doneAt   sim.Cycle
	finished bool

	// Fault receives protocol errors.
	Fault func(error)
}

// NewPPE creates the host processor model.
func NewPPE(id, dseID int, lseEP func(int) int, net *noc.Network, eng *sim.Engine,
	entryTemplate int, args []int64, expect int) *PPE {
	return &PPE{
		id: id, dseID: dseID, lseEP: lseEP, net: net, eng: eng,
		entryTemplate: entryTemplate, args: args, expect: expect,
		tokens: make(map[int64]int64),
		Fault:  func(err error) { panic(err) },
	}
}

// Name implements sim.Component.
func (p *PPE) Name() string { return "ppe" }

// Reset rebinds the PPE to a (possibly different) program's TLP
// activity and clears all collected tokens for machine reuse.
func (p *PPE) Reset(entryTemplate int, args []int64, expect int) {
	p.entryTemplate = entryTemplate
	p.args = args
	p.expect = expect
	p.arrivals.Reset()
	p.started = false
	p.rootFP = 0
	clear(p.tokens)
	p.order = p.order[:0]
	p.doneAt = 0
	p.finished = false
}

// Attach stores the engine wake handle.
func (p *PPE) Attach(h *sim.Handle) { p.handle = h }

// Tick starts the TLP activity on the first cycle and acts on the
// messages delivered by now.
func (p *PPE) Tick(now sim.Cycle) sim.Cycle {
	if !p.started {
		p.started = true
		p.net.Send(now, noc.Message{
			Src: int32(p.id), Dst: int32(p.dseID), Kind: noc.KindFallocReq,
			A: int64(p.entryTemplate), B: int64(len(p.args)), C: 1, D: int64(p.id),
		})
	}
	for m, ok := p.arrivals.PopDue(now); ok; m, ok = p.arrivals.PopDue(now) {
		p.deliver(now, m)
	}
	return p.arrivals.Earliest()
}

// DeliverAt implements noc.Endpoint: the root FALLOC response and mailbox
// posts arrive here. The message waits in arrivals, and the PPE wakes on
// its delivery cycle — first in that cycle's pass, as the machine's first
// component, so its root frame stores and its Stop come before anything
// else on the cycle.
func (p *PPE) DeliverAt(at sim.Cycle, seq int64, m noc.Message) {
	p.arrivals.Push(at, seq, m)
	p.handle.Wake(at)
}

// Undelivered implements noc.Endpoint.
func (p *PPE) Undelivered(now sim.Cycle) int { return p.arrivals.Beyond(now) }

func (p *PPE) deliver(now sim.Cycle, m noc.Message) {
	switch m.Kind {
	case noc.KindFallocResp:
		p.rootFP = m.A
		// Store the activity arguments into the root frame; SC equals
		// len(args), so the root becomes ready after the last store.
		for i, arg := range p.args {
			p.net.Send(now, noc.Message{
				Src: int32(p.id), Dst: int32(p.routeFor(m.A)), Kind: noc.KindFrameStore,
				A: m.A, B: arg, C: int64(i),
			})
		}
	case noc.KindMailboxPost:
		if _, dup := p.tokens[m.C]; dup {
			p.Fault(fmt.Errorf("ppe: duplicate mailbox token in slot %d", m.C))
			return
		}
		p.tokens[m.C] = m.B
		p.order = append(p.order, m.C)
		if len(p.tokens) >= p.expect && !p.finished {
			p.finished = true
			p.doneAt = now
			p.eng.Stop()
		}
	default:
		p.Fault(fmt.Errorf("ppe received unexpected %s", m))
	}
}

func (p *PPE) routeFor(fp int64) int {
	spe, _, err := splitFPForRouting(fp)
	if err != nil {
		p.Fault(err)
		return p.dseID
	}
	return p.lseEP(spe)
}

// Done reports whether all expected tokens arrived.
func (p *PPE) Done() bool { return p.finished }

// Tokens returns the collected mailbox values ordered by slot.
func (p *PPE) Tokens() []int64 {
	slots := make([]int64, 0, len(p.tokens))
	for s := range p.tokens {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	out := make([]int64, 0, len(slots))
	for _, s := range slots {
		out = append(out, p.tokens[s])
	}
	return out
}

// DumpState implements sim.StateDumper.
func (p *PPE) DumpState() string {
	return fmt.Sprintf("tokens=%d/%d rootFP=%#x arrivals=%d%s",
		len(p.tokens), p.expect, p.rootFP, p.arrivals.Len(), p.arrivals.Describe())
}
