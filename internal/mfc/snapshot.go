package mfc

import (
	"repro/internal/noc"
	"repro/internal/snap"
)

// SetCmdLatency changes the per-command processing latency at run time —
// the checkpoint/fork harness's divergence knob. The latency is read
// when the queue head starts processing (Tick), so a change between
// engine passes applies to every command launched afterwards,
// identically whether the prefix was simulated or restored.
func (e *Engine) SetCmdLatency(cycles int) {
	if cycles < 0 {
		cycles = 0
	}
	e.cfg.CmdLatency = cycles
}

// CmdLatency returns the current command latency (for tests).
func (e *Engine) CmdLatency() int { return e.cfg.CmdLatency }

// Walk writes or reads the MFC's mutable state: staging channels, the
// command slab with its free-list and queue, tag groups, pending timer
// events, held arrivals and statistics. Wiring (endpoints, callbacks, recorder) is
// construction-time and not serialised; a read needs an identically
// configured MFC.
func (e *Engine) Walk(c *snap.Codec) {
	for _, p := range []*int64{&e.chLSA, &e.chEA, &e.chSize, &e.chTag} {
		snap.Int(c, p)
	}
	snap.Slice(c, &e.cmds, func(c *snap.Codec, cmd *command) {
		for _, p := range []*int64{&cmd.id, &cmd.lsa, &cmd.ea, &cmd.size, &cmd.tag} {
			snap.Int(c, p)
		}
		snap.Byte(c, &cmd.dir)
		c.Bool(&cmd.inflight)
		snap.Int(c, &cmd.remaining)
		snap.Int(c, &cmd.issuedAt)
		snap.Int(c, &cmd.launchedAt)
	})
	snap.Slice(c, &e.free, snap.Int[int32])
	snap.Slice(c, &e.queue, snap.Int[int32])
	c.Bool(&e.headBusy)
	snap.Int(c, &e.inflightN)
	snap.Slice(c, &e.tags, func(c *snap.Codec, t *tagEntry) {
		snap.Int(c, &t.tag)
		snap.Int(c, &t.n)
	})
	if c.Reading() {
		clear(e.sendSlab)
		e.sendSlab, e.sendFree = e.sendSlab[:0], e.sendFree[:0]
	}
	snap.Heap(c, &e.events, func(c *snap.Codec, ev *timedEvent) {
		snap.Int(c, &ev.at)
		snap.Int(c, &ev.seq)
		snap.Byte(c, &ev.kind)
		// An evSend's payload rides in the slab: it is written as a zero
		// slot plus the message, every other kind as its command slot
		// plus an empty message.
		slot, msg := ev.slot, noc.Message{}
		if !c.Reading() && ev.kind == evSend {
			slot, msg = 0, e.sendSlab[ev.slot]
		}
		snap.Int(c, &slot)
		noc.WalkMessage(c, &msg)
		if c.Reading() {
			ev.slot = slot
			if ev.kind == evSend {
				ev.slot = e.sendAlloc(msg)
			}
		}
	})
	e.arrivals.Walk(c)
	st := &e.stats
	for _, p := range []*int64{&e.nextGen, &e.seq, &st.Gets, &st.Puts, &st.BytesIn, &st.BytesOut, &st.QueueFull, &st.TagWaits} {
		snap.Int(c, p)
	}
	snap.Int(c, &st.MaxQueueDepth)
	for _, s := range e.queue {
		if c.Reading() && int(s) >= len(e.cmds) {
			c.Fail("mfc%d: snapshot queue references slot %d beyond slab of %d", e.id, s, len(e.cmds))
		}
	}
}
