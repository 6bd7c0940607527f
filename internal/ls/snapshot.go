package ls

import (
	"cmp"

	"repro/internal/snap"
)

// Walk writes or reads the local store: size, contents (the written
// prefix with trailing zeros trimmed, so only what a run wrote costs
// bytes) and port bookings. A read needs a store of the
// same size.
func (l *LocalStore) Walk(c *snap.Codec) {
	size := l.cfg.SizeBytes
	if snap.Int(c, &size); size != l.cfg.SizeBytes {
		c.Fail("ls: snapshot store size %d, this store %d", size, l.cfg.SizeBytes)
	}
	end := len(l.data)
	for end > 0 && l.data[end-1] == 0 {
		end--
	}
	data := l.data[:end]
	c.Bytes(&data)
	if c.Reading() && c.Err() == nil {
		if len(data) > size {
			c.Fail("ls: snapshot content %d bytes exceeds store %d", len(data), size)
		} else {
			clear(l.data)
			l.data = l.data[:0]
			l.grow(len(data))
			copy(l.data, data)
		}
	}
	snap.Ints(c, l.portFree[:])
}

// Walk writes or reads the allocator: region, free list and live
// allocations (by address, for deterministic bytes). A read needs the
// allocator's current layout (same program, same configuration).
func (a *Allocator) Walk(c *snap.Codec) {
	base, size := a.base, a.size
	snap.Int(c, &base)
	if snap.Int(c, &size); base != a.base || size != a.size {
		c.Fail("ls: snapshot allocator region [%d,+%d), this allocator [%d,+%d)", base, size, a.base, a.size)
	}
	snap.Slice(c, &a.free, func(c *snap.Codec, s *span) {
		snap.Int(c, &s.addr)
		snap.Int(c, &s.size)
	})
	snap.Map(c, a.live, cmp.Compare[int], func(c *snap.Codec, addr, size *int) {
		snap.Int(c, addr)
		snap.Int(c, size)
	})
	snap.Int(c, &a.liveBytes)
	snap.Int(c, &a.peakBytes)
}
