package dta

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/noc"
	"repro/internal/snap"
)

// Registry is a machine snapshot's thread table. Threads are shared by
// pointer between the LSE structures and the SPU, so a snapshot walks
// each thread once, here, and the components refer to them by index
// (Ref), which keeps shared identity across the round trip.
type Registry struct {
	threads []*Thread
	index   map[*Thread]int32
}

// Add registers th; adding a registered thread again is a no-op.
func (g *Registry) Add(th *Thread) {
	if g.index == nil {
		g.index = make(map[*Thread]int32)
	}
	if _, ok := g.index[th]; !ok {
		g.index[th] = int32(len(g.threads))
		g.threads = append(g.threads, th)
	}
}

// Walk writes the registered threads' records, or reads fresh threads
// into the table.
func (g *Registry) Walk(c *snap.Codec) {
	snap.Slice(c, &g.threads, func(c *snap.Codec, th **Thread) {
		if c.Reading() {
			*th = new(Thread)
		}
		t := *th
		snap.Int(c, &t.Seq)
		for _, p := range []*int{&t.Slot, &t.SPE, &t.Template} {
			snap.Int(c, p)
		}
		snap.Byte(c, &t.State)
		for _, p := range []*int{&t.SC, &t.BufAddr, &t.BufBytes, &t.VFPOwner, &t.VFPIndex} {
			snap.Int(c, p)
		}
	})
}

// Ref writes or reads a reference to a registered thread: its index, or
// -1 for nil.
func (g *Registry) Ref(c *snap.Codec, th **Thread) {
	i := int64(-1)
	if !c.Reading() && *th != nil {
		j, ok := g.index[*th]
		if !ok {
			panic("dta: snapshot found a thread outside the registry")
		}
		i = int64(j)
	}
	if snap.Int(c, &i); !c.Reading() {
		return
	}
	*th = nil
	if i < -1 || i >= int64(len(g.threads)) {
		c.Fail("dta: snapshot thread ref %d beyond a registry of %d", i, len(g.threads))
	} else if i >= 0 {
		*th = g.threads[i]
	}
}

// Threads visits every thread the LSE holds a reference to, in a
// deterministic order (may visit the same thread more than once — the
// registry dedupes by pointer).
func (l *LSE) Threads(visit func(*Thread)) {
	for _, th := range l.slots {
		if th != nil {
			visit(th)
		}
	}
	for _, q := range [][]*Thread{l.readyQ, l.pfQ, l.pfPending} {
		for _, th := range q {
			visit(th)
		}
	}
	for _, m := range []map[int64]*Thread{l.waitDMA, l.drainWait} {
		for _, k := range slices.Sorted(maps.Keys(m)) {
			visit(m[k])
		}
	}
	for _, it := range l.inbox[l.inboxHead:] {
		if it.th != nil {
			visit(it.th)
		}
	}
}

// Walk writes or reads the LSE's mutable state, threads as references
// into reg. Wiring (endpoints, callbacks, store/allocator bindings,
// tracer) is construction-time and not serialised; a read needs an
// identically configured LSE running the same program.
func (l *LSE) Walk(c *snap.Codec, reg *Registry) {
	snap.Fixed(c, "dta: frame slots", l.slots, reg.Ref)
	snap.Slice(c, &l.freeSlots, snap.Int[int])
	snap.Int(c, &l.threadSeq)
	for _, q := range []*[]*Thread{&l.readyQ, &l.pfQ, &l.pfPending} {
		snap.Slice(c, q, reg.Ref)
	}
	for _, m := range []map[int64]*Thread{l.waitDMA, l.drainWait} {
		snap.Map(c, m, cmp.Compare[int64], func(c *snap.Codec, k *int64, th **Thread) {
			snap.Int(c, k)
			reg.Ref(c, th)
		})
	}
	item := func(c *snap.Codec, it *lseItem) {
		snap.Byte(c, &it.kind)
		noc.WalkMessage(c, &it.msg)
		reg.Ref(c, &it.th)
		for _, p := range []*int64{&it.a, &it.b, &it.c} {
			snap.Int(c, p)
		}
	}
	// The inbox goes out rebased to its live window.
	if c.Reading() {
		clear(l.inbox)
		l.inbox, l.inboxHead = l.inbox[:0], 0
	}
	live := l.inbox[l.inboxHead:]
	if snap.Slice(c, &live, item); c.Reading() {
		l.inbox = live
	}
	l.arrivals.Walk(c)
	snap.Map(c, l.pendingLocal, cmp.Compare[int64], func(c *snap.Codec, k *int64, v *bool) {
		snap.Int(c, k)
		*v = true
	})
	snap.Map(c, l.vfps, cmp.Compare[int], func(c *snap.Codec, k *int, e **vfpEntry) {
		snap.Int(c, k)
		if c.Reading() {
			*e = new(vfpEntry)
		}
		c.Bool(&(*e).bound)
		snap.Int(c, &(*e).fp)
		snap.Slice(c, &(*e).buffered, item)
	})
	snap.Int(c, &l.vfpNext)
	snap.Map(c, l.vfpByReq, cmp.Compare[int64], func(c *snap.Codec, k *int64, v *int) {
		snap.Int(c, k)
		snap.Int(c, v)
	})
	st := &l.stats
	for _, p := range []*int64{&st.Fallocs, &st.LocalStores, &st.RemoteStores, &st.MailboxPosts,
		&st.Frees, &st.Threads, &st.VFPBinds, &st.VFPBuffered} {
		snap.Int(c, p)
	}
	snap.Int(c, &st.MaxInbox)
	snap.Int(c, &st.MaxReady)
	snap.Int(c, &st.BufferWaits)
}

// Walk writes or reads the DSE's mutable state: the free-frame view,
// the held arrivals, the request queue, the round-robin cursor and
// statistics. A read needs an identically configured DSE.
func (d *DSE) Walk(c *snap.Codec) {
	snap.Fixed(c, "dta: DSE PEs", d.freeCount, snap.Int[int])
	d.arrivals.Walk(c)
	snap.Slice(c, &d.queue, noc.WalkMessage)
	snap.Int(c, &d.rr)
	snap.Int(c, &d.stats.Requests)
	snap.Int(c, &d.stats.Forwards)
	snap.Int(c, &d.stats.MaxQueue)
	snap.Int(c, &d.stats.StallsAll)
}
