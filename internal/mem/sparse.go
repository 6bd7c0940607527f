// Package mem models the CellDTA main ("global") memory: a single-ported
// 512 MB store with 150-cycle access latency (paper Table 2), reachable
// only through the interconnect. It serves both the blocking scalar
// READ/WRITE accesses of the original DTA execution model and the block
// transfers issued by the MFC DMA engines.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// pageBits selects a 64 KiB sparse page.
const pageBits = 16
const pageSize = 1 << pageBits

// page is one mapped page: its backing bytes and the extent written
// since it was mapped. The extent sits beside the slice, not in front of
// an array, so the backing stays exactly pageSize bytes — a 64 KiB
// allocation, where 16 more bytes would take a 72 KiB span.
type page struct {
	buf    []byte // len == cap == pageSize
	lo, hi int    // written extent [lo,hi); empty when lo == hi
}

// touch grows the written extent to cover [lo,hi).
func (p *page) touch(lo, hi int) {
	if p.lo == p.hi {
		p.lo, p.hi = lo, hi
		return
	}
	if lo < p.lo {
		p.lo = lo
	}
	if hi > p.hi {
		p.hi = hi
	}
}

// Sparse is a byte-addressable sparse backing store. Reads of unwritten
// memory return zeros without allocating pages.
//
// The extent invariant: every page, mapped or pooled, is zero outside
// the extent [lo,hi) its writes have covered since it was mapped (the
// main-memory twin of ls.LocalStore's dirty high-water mark). Every
// write path grows the extent before it stores, so Reset, FirstDiff and
// the snapshot walk look at the extent only and cost what the program wrote, not
// what the pages could hold. TestSparseModel proves it against a flat
// byte slice.
//
// A one-entry page cache remembers the last page touched: DMA streams
// and scalar loops walk memory sequentially, so nearly every access
// lands on the cached page and skips the map lookup. Pages are never
// freed, so the cache can never go stale.
type Sparse struct {
	size  int64
	pages map[int64]*page
	// pool holds zeroed pages (empty extent) released by Reset for reuse,
	// so a pooled machine does not re-allocate its working set every run.
	pool []*page

	lastIdx int64
	last    *page
}

// NewSparse returns a store of the given size in bytes.
func NewSparse(size int64) *Sparse {
	return &Sparse{size: size, pages: make(map[int64]*page), lastIdx: -1}
}

// page returns the mapped page idx, or nil, consulting the one-entry
// cache first.
func (s *Sparse) page(idx int64) *page {
	if idx == s.lastIdx {
		return s.last
	}
	p := s.pages[idx]
	if p != nil {
		s.lastIdx, s.last = idx, p
	}
	return p
}

// Size returns the addressable size in bytes.
func (s *Sparse) Size() int64 { return s.size }

// Reset forgets every written byte. Each page's written extent is
// zeroed — the rest of it is zero already — and the page is kept in a
// free pool, so a reused store serves its next run from the same memory
// instead of re-allocating its working set, at a cost proportional to
// what the last run wrote.
func (s *Sparse) Reset() {
	for _, p := range s.pages {
		clear(p.buf[p.lo:p.hi])
		p.lo, p.hi = 0, 0
		s.pool = append(s.pool, p)
	}
	clear(s.pages)
	s.lastIdx, s.last = -1, nil
}

func (s *Sparse) check(addr int64, n int) error {
	if addr < 0 || addr > s.size-int64(n) { // addr+n could overflow
		return fmt.Errorf("mem: access [%#x,+%d) outside [0,%#x)", addr, n, s.size)
	}
	return nil
}

// ReadInto fills buf from addr, copying page-at-a-time: each touched
// page contributes one copy (or one clear for unallocated pages), so
// DMA block transfers cost O(pages), not O(bytes). This is the bulk
// read path used by memory block reads, the MFC and FirstDiff.
func (s *Sparse) ReadInto(addr int64, buf []byte) error {
	if err := s.check(addr, len(buf)); err != nil {
		return err
	}
	for done := 0; done < len(buf); {
		page, off := addr>>pageBits, int(addr&(pageSize-1))
		n := pageSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		if p := s.page(page); p != nil {
			copy(buf[done:done+n], p.buf[off:off+n])
		} else {
			clear(buf[done : done+n])
		}
		done += n
		addr += int64(n)
	}
	return nil
}

// ReadBytes fills buf from addr (alias of the bulk ReadInto path).
func (s *Sparse) ReadBytes(addr int64, buf []byte) error {
	return s.ReadInto(addr, buf)
}

// WriteFrom copies data to addr page-at-a-time — the bulk write path
// used by memory block writes and segment loading.
func (s *Sparse) WriteFrom(addr int64, data []byte) error {
	if err := s.check(addr, len(data)); err != nil {
		return err
	}
	for done := 0; done < len(data); {
		page, off := addr>>pageBits, int(addr&(pageSize-1))
		n := pageSize - off
		if n > len(data)-done {
			n = len(data) - done
		}
		p := s.page(page)
		if p == nil {
			p = s.newPage(page)
		}
		p.touch(off, off+n)
		copy(p.buf[off:off+n], data[done:done+n])
		done += n
		addr += int64(n)
	}
	return nil
}

// WriteBytes copies data to addr (alias of the bulk WriteFrom path).
func (s *Sparse) WriteBytes(addr int64, data []byte) error {
	return s.WriteFrom(addr, data)
}

// newPage maps page idx onto a zeroed backing with an empty extent,
// recycled from the pool when there is one.
func (s *Sparse) newPage(idx int64) *page {
	var p *page
	if n := len(s.pool); n > 0 {
		p = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		p = &page{buf: make([]byte, pageSize)}
	}
	s.pages[idx] = p
	s.lastIdx, s.last = idx, p
	return p
}

// Read32 returns the sign-extended little-endian 32-bit word at addr. A
// word inside one mapped page is read in place (every blocking READ
// comes here); a word that straddles pages, lies on an unmapped page or
// out of range takes ReadBytes, the reference. The unsigned compare
// rejects negative addresses and ones past the end at once.
func (s *Sparse) Read32(addr int64) (int64, error) {
	if off := addr & (pageSize - 1); uint64(addr) <= uint64(s.size-4) && off <= pageSize-4 {
		if p := s.page(addr >> pageBits); p != nil {
			return int64(int32(binary.LittleEndian.Uint32(p.buf[off : off+4]))), nil
		}
	}
	var b [4]byte
	if err := s.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return int64(int32(binary.LittleEndian.Uint32(b[:]))), nil
}

// Read64 returns the little-endian 64-bit word at addr, in place under
// the same conditions as Read32.
func (s *Sparse) Read64(addr int64) (int64, error) {
	if off := addr & (pageSize - 1); uint64(addr) <= uint64(s.size-8) && off <= pageSize-8 {
		if p := s.page(addr >> pageBits); p != nil {
			return int64(binary.LittleEndian.Uint64(p.buf[off : off+8])), nil
		}
	}
	var b [8]byte
	if err := s.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

// Write32 stores the low 32 bits of v at addr.
func (s *Sparse) Write32(addr int64, v int64) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	return s.WriteBytes(addr, b[:])
}

// Write64 stores v at addr.
func (s *Sparse) Write64(addr int64, v int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return s.WriteBytes(addr, b[:])
}

// Reader adapts Sparse to the program.MemReader interface (errors are
// converted to zero reads; result checkers operate on validated
// addresses).
type Reader struct{ S *Sparse }

// Read32 implements program.MemReader.
func (r Reader) Read32(addr int64) int64 {
	v, err := r.S.Read32(addr)
	if err != nil {
		return 0
	}
	return v
}

// Read64 implements program.MemReader.
func (r Reader) Read64(addr int64) int64 {
	v, err := r.S.Read64(addr)
	if err != nil {
		return 0
	}
	return v
}

// unmapped stands in for a page a store has not mapped: all zero, with
// an empty extent.
var unmapped = &page{buf: make([]byte, pageSize)}

// zero reports whether the page holds no non-zero byte. Only the written
// extent can.
func (p *page) zero() bool {
	return bytes.Equal(p.buf[p.lo:p.hi], unmapped.buf[p.lo:p.hi])
}

// firstDiff returns the lowest offset at which two pages differ, or -1.
// Both are zero outside their extents (see Sparse), so only the span of
// the two extents is compared.
func (p *page) firstDiff(q *page) int {
	span := page{lo: p.lo, hi: p.hi}
	if q.lo != q.hi {
		span.touch(q.lo, q.hi)
	}
	lo, hi := span.lo, span.hi
	if bytes.Equal(p.buf[lo:hi], q.buf[lo:hi]) {
		return -1
	}
	for p.buf[lo] == q.buf[lo] {
		lo++
	}
	return lo
}

// FirstDiff compares two sparse stores (unmapped pages read as zero)
// and returns the lowest differing address. equal=true means the images
// are identical. It walks the two page sets as they are and, by the
// extent invariant (see Sparse), compares of each page only the span of
// the two sides' written extents — bytes outside both are zero on both
// sides — so the whole-image comparison the synth differential checker
// performs after every run costs a memcmp of what the two runs wrote.
func FirstDiff(a, b *Sparse) (addr int64, equal bool) {
	addr, equal = 0, true
	diff := func(idx int64, pa, pb *page) {
		if off := pa.firstDiff(pb); off >= 0 {
			if at := idx<<pageBits + int64(off); equal || at < addr {
				addr, equal = at, false
			}
		}
	}
	for i, pa := range a.pages {
		pb := b.pages[i]
		if pb == nil {
			pb = unmapped
		}
		diff(i, pa, pb)
	}
	for i, pb := range b.pages {
		if a.pages[i] == nil {
			diff(i, unmapped, pb)
		}
	}
	return addr, equal
}
