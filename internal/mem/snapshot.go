package mem

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/snap"
)

// Walk writes or reads the sparse image: allocated, non-zero pages in
// ascending page order, each written whole. All-zero pages are skipped —
// an unallocated page reads as zero, so dropping them loses nothing and
// keeps warm-up snapshots proportional to the pages actually written;
// whether a page is all zero is read off its written extent.
func (s *Sparse) Walk(c *snap.Codec) {
	size := s.size
	if snap.Int(c, &size); size != s.size {
		c.Fail("mem: snapshot store size %d, this store %d", size, s.size)
	}
	var idxs []int64
	if c.Reading() {
		s.Reset()
	} else {
		for i, p := range s.pages {
			if !p.zero() {
				idxs = append(idxs, i)
			}
		}
		slices.Sort(idxs)
	}
	snap.Slice(c, &idxs, func(c *snap.Codec, idx *int64) {
		snap.Int(c, idx)
		var data []byte
		if !c.Reading() {
			data = s.pages[*idx].buf
		}
		c.Bytes(&data)
		if !c.Reading() || c.Err() != nil {
			return
		}
		if len(data) != pageSize {
			c.Fail("mem: snapshot page %d has %d bytes", *idx, len(data))
			return
		}
		p := s.newPage(*idx)
		p.touch(0, pageSize)
		copy(p.buf, data)
	})
}

// SetLatency changes the access latency at run time — the
// checkpoint/fork harness's divergence knob. The latency is read per
// request in service(), so a change between engine passes applies to
// every request serviced afterwards, identically whether the prefix
// was simulated or restored. Zero is a legal latency (Config.Validate
// accepts it), so only a negative value is clamped.
func (m *Memory) SetLatency(cycles int) {
	m.cfg.Latency = max(cycles, 0)
}

// Latency returns the current access latency (for tests).
func (m *Memory) Latency() int { return m.cfg.Latency }

// Walk writes or reads the memory component's mutable state: the
// functional store, the requests in the inbox — delivered or still on
// their way, each with its delivery cycle — port bookings and pending
// responses. Wiring (endpoint id, network, fault hook) is not state, and
// neither are the READs serviced at hand-over: a snapshot is taken at a
// slice boundary, and by then the engine has passed all of them. A read
// needs an identically configured memory and forgets the READs it
// serviced at hand-over in whatever run it was in before: a stale latest
// service cycle would make a delivery on that cycle look due.
func (m *Memory) Walk(c *snap.Codec) {
	if c.Reading() {
		m.forgetHandOvers()
	}
	m.store.Walk(c)
	m.inbox.Walk(c)
	snap.Fixed(c, "mem: ports", m.portFree, snap.Int[sim.Cycle])
	m.out.Walk(c)
	st := &m.stats
	for _, p := range []*int64{&m.seq, &st.ScalarReads, &st.ScalarWrites, &st.BlockReads, &st.BlockWrites,
		&st.BytesRead, &st.BytesWritten, &st.PortBusy} {
		snap.Int(c, p)
	}
}
