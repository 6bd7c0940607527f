package mem

import (
	"fmt"
	"sort"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Snapshot serialises the sparse image: allocated, non-zero pages in
// ascending page order, each written whole. All-zero pages are skipped —
// an unallocated page reads as zero, so dropping them loses nothing and
// keeps warm-up snapshots proportional to the pages actually written;
// whether a page is all zero is read off its written extent.
func (s *Sparse) Snapshot(w *snap.Writer) {
	w.I64(s.size)
	idxs := make([]int64, 0, len(s.pages))
	for i, p := range s.pages {
		if !p.zero() {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	w.Int(len(idxs))
	for _, i := range idxs {
		w.I64(i)
		w.WriteBytes(s.pages[i].buf)
	}
}

// Restore rewinds the store to a snapshot.
func (s *Sparse) Restore(r *snap.Reader) error {
	size := r.I64()
	if r.Err() == nil && size != s.size {
		return fmt.Errorf("mem: snapshot store size %d, this store %d", size, s.size)
	}
	s.Reset()
	n := r.Int()
	for k := 0; k < n; k++ {
		idx := r.I64()
		data := r.ReadBytes()
		if r.Err() != nil {
			return r.Err()
		}
		if len(data) != pageSize {
			return fmt.Errorf("mem: snapshot page %d has %d bytes", idx, len(data))
		}
		p := s.newPage(idx)
		p.touch(0, pageSize)
		copy(p.buf, data)
	}
	return r.Err()
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

// snapshot writes the heap in slice order; restore re-pushes, and pop
// order is the (at, seq) total order, so the internal layout is
// behaviour-invisible.
func (q *msgHeap) snapshot(w *snap.Writer) {
	w.Int(len(q.refs))
	for _, ref := range q.refs {
		w.I64(int64(ref.at))
		w.I64(ref.seq)
		noc.SnapshotMessage(w, q.slab[ref.slot])
	}
}

func (q *msgHeap) restore(r *snap.Reader) error {
	q.reset()
	n := r.Int()
	for i := 0; i < n; i++ {
		at := sim.Cycle(r.I64())
		seq := r.I64()
		msg := noc.RestoreMessage(r)
		if r.Err() != nil {
			return r.Err()
		}
		q.push(at, seq, msg)
	}
	return r.Err()
}

// Snapshot serialises the memory component's mutable state: the
// functional store, the requests in the inbox — delivered or still on
// their way, each with its delivery cycle — port bookings and pending
// responses. Wiring (endpoint id, network, fault hook) is not state, and
// neither are the READs serviced at hand-over: a snapshot is taken at a
// slice boundary, and by then the engine has passed all of them.
func (m *Memory) Snapshot(w *snap.Writer) {
	m.store.Snapshot(w)
	m.inbox.snapshot(w)
	w.Int(len(m.portFree))
	for _, f := range m.portFree {
		w.I64(int64(f))
	}
	m.out.snapshot(w)
	w.I64(m.seq)
	w.I64(m.stats.ScalarReads)
	w.I64(m.stats.ScalarWrites)
	w.I64(m.stats.BlockReads)
	w.I64(m.stats.BlockWrites)
	w.I64(m.stats.BytesRead)
	w.I64(m.stats.BytesWritten)
	w.I64(m.stats.PortBusy)
}

// Restore rewinds the memory component to a snapshot taken on an
// identically configured memory, forgetting the READs this memory
// serviced at hand-over in whatever run it was in before: a stale latest
// service cycle would make a delivery on that cycle look due.
func (m *Memory) Restore(r *snap.Reader) error {
	m.forgetHandOvers()
	if err := m.store.Restore(r); err != nil {
		return err
	}
	if err := m.inbox.restore(r); err != nil {
		return err
	}
	np := r.Int()
	if r.Err() == nil && np != len(m.portFree) {
		return fmt.Errorf("mem: snapshot has %d ports, memory has %d", np, len(m.portFree))
	}
	for i := 0; i < np; i++ {
		m.portFree[i] = sim.Cycle(r.I64())
	}
	if err := m.out.restore(r); err != nil {
		return err
	}
	m.seq = r.I64()
	m.stats.ScalarReads = r.I64()
	m.stats.ScalarWrites = r.I64()
	m.stats.BlockReads = r.I64()
	m.stats.BlockWrites = r.I64()
	m.stats.BytesRead = r.I64()
	m.stats.BytesWritten = r.I64()
	m.stats.PortBusy = r.I64()
	return r.Err()
}
