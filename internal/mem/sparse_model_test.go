package mem

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/snap"
)

// These tests hold Sparse's written-extent bookkeeping (see Sparse)
// against a flat byte slice: Reset, FirstDiff and Snapshot look at each
// page's extent only, which is right as long as every page really is
// zero outside it.

const modelPages = 6

// zeros is the tests' own all-zero page (not the one FirstDiff uses).
var zeros = make([]byte, pageSize)

// checkExtents fails unless every page of s, mapped or pooled, is
// exactly pageSize bytes and zero outside its written extent, and every
// pooled page has an empty one.
func checkExtents(t *testing.T, s *Sparse, when string) {
	t.Helper()
	check := func(what string, p *page) {
		t.Helper()
		if len(p.buf) != pageSize || cap(p.buf) != pageSize {
			t.Fatalf("%s: %s backing has len %d cap %d, want exactly %d", when, what, len(p.buf), cap(p.buf), pageSize)
		}
		if p.lo < 0 || p.lo > p.hi || p.hi > pageSize {
			t.Fatalf("%s: %s extent [%d,%d)", when, what, p.lo, p.hi)
		}
		if !bytes.Equal(p.buf[:p.lo], zeros[:p.lo]) || !bytes.Equal(p.buf[p.hi:], zeros[p.hi:]) {
			t.Fatalf("%s: %s holds a non-zero byte outside its extent [%d,%d)", when, what, p.lo, p.hi)
		}
	}
	for idx, p := range s.pages {
		check(fmt.Sprintf("mapped page %d", idx), p)
	}
	for _, p := range s.pool {
		check("pooled page", p)
		if p.lo != p.hi {
			t.Fatalf("%s: pooled page keeps extent [%d,%d)", when, p.lo, p.hi)
		}
	}
}

// checkImage fails unless s reads back as ref, through the bulk path and
// through both word widths.
func checkImage(t *testing.T, s *Sparse, ref []byte, rng *sim.Rand, when string) {
	t.Helper()
	got := make([]byte, len(ref))
	if err := s.ReadInto(0, got); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if !bytes.Equal(got, ref) {
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: byte %#x reads %#x, want %#x", when, i, got[i], ref[i])
			}
		}
	}
	for k := 0; k < 8; k++ {
		addr := int64(rng.Intn(len(ref) - 8))
		var w32, w64 int64
		for i := 3; i >= 0; i-- {
			w32 = w32<<8 | int64(ref[addr+int64(i)])
		}
		for i := 7; i >= 0; i-- {
			w64 = w64<<8 | int64(ref[addr+int64(i)])
		}
		if v, err := s.Read32(addr); err != nil || v != int64(int32(w32)) {
			t.Fatalf("%s: Read32(%#x) = %#x, %v; want %#x", when, addr, v, err, int64(int32(w32)))
		}
		if v, err := s.Read64(addr); err != nil || v != w64 {
			t.Fatalf("%s: Read64(%#x) = %#x, %v; want %#x", when, addr, v, err, w64)
		}
	}
}

// modelAddr picks an address for an n-byte access: half the time one
// that straddles a page boundary.
func modelAddr(rng *sim.Rand, n int) int64 {
	if n > 1 && rng.Intn(2) == 0 {
		boundary := int64(1+rng.Intn(modelPages-1)) * pageSize
		return boundary - int64(1+rng.Intn(n-1))
	}
	return int64(rng.Intn(modelPages*pageSize - n))
}

// modelWrite applies one random write — bulk, 32-bit or 64-bit — to the
// store and to the flat reference.
func modelWrite(t *testing.T, s *Sparse, ref []byte, rng *sim.Rand) {
	t.Helper()
	var err error
	switch rng.Intn(3) {
	case 0:
		data := make([]byte, 1+rng.Intn(300))
		for i := range data {
			data[i] = byte(rng.Uint32()) // zeros included: a written zero is inside the extent too
		}
		addr := modelAddr(rng, len(data))
		copy(ref[addr:], data)
		err = s.WriteFrom(addr, data)
	case 1:
		addr, v := modelAddr(rng, 4), int64(rng.Uint32())
		for i := 0; i < 4; i++ {
			ref[addr+int64(i)] = byte(v >> (8 * i))
		}
		err = s.Write32(addr, v)
	case 2:
		addr, v := modelAddr(rng, 8), int64(rng.Uint32())<<32|int64(rng.Uint32())
		for i := 0; i < 8; i++ {
			ref[addr+int64(i)] = byte(v >> (8 * i))
		}
		err = s.Write64(addr, v)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func snapshotOf(s *Sparse) []byte {
	var w snap.Writer
	s.Snapshot(&w)
	return w.Bytes()
}

// TestSparseModel drives random sequences of writes, Resets and Restores
// through one store — so pages are recycled from the pool, for other
// page indexes than they served before, and restored over — and requires
// after every step that the store reads as the flat reference does and
// that every page is zero outside its extent.
func TestSparseModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRand(seed)
		s := NewSparse(modelPages * pageSize)
		ref := make([]byte, modelPages*pageSize)
		var saved, savedRef []byte // a snapshot and the image it was taken of
		for step := 0; step < 120; step++ {
			when := fmt.Sprintf("seed %d step %d, after ", seed, step)
			switch op := rng.Intn(20); {
			case op == 0:
				s.Reset()
				clear(ref)
				when += "Reset"
			case op == 1:
				saved, savedRef = snapshotOf(s), bytes.Clone(ref)
				when += "Snapshot"
			case op == 2 && saved != nil:
				// Into a used store: whatever it holds now must go.
				r := snap.NewReader(saved)
				if err := s.Restore(r); err != nil {
					t.Fatal(err)
				}
				if err := r.ExpectEOF(); err != nil {
					t.Fatal(err)
				}
				copy(ref, savedRef)
				when += "Restore"
			default:
				modelWrite(t, s, ref, rng)
				when += "a write"
			}
			checkExtents(t, s, when)
			checkImage(t, s, ref, rng, when)
		}
	}
}

// refFirstDiff is FirstDiff over two flat images, byte by byte.
func refFirstDiff(a, b []byte) (int64, bool) {
	for i := range a {
		if a[i] != b[i] {
			return int64(i), false
		}
	}
	return 0, true
}

// TestFirstDiffMatchesReference compares FirstDiff with a byte-by-byte
// scan over pairs of stores whose pages and extents do not line up.
func TestFirstDiffMatchesReference(t *testing.T) {
	type write struct {
		addr int64
		data []byte
	}
	w := func(addr int64, data ...byte) write { return write{addr, data} }
	same := []write{w(100, 1, 2, 3, 4, 5, 6, 7, 8), w(2*pageSize-2, 9, 9, 9, 9)}
	for _, tc := range []struct {
		name string
		a, b []write
	}{
		{"equal", same, same},
		{"page mapped on one side only", append([]write{w(4*pageSize+17, 5)}, same...), same},
		{"page mapped on the other side only", same, append([]write{w(4*pageSize+17, 5)}, same...)},
		{"mapped on one side, all zero there", append([]write{w(4*pageSize+17, 0, 0)}, same...), same},
		{"disjoint extents in one page", []write{w(10, 1)}, []write{w(pageSize-10, 1)}},
		{"disjoint extents, the same bytes in the end", []write{w(10, 1), w(5000, 2)}, []write{w(5000, 2), w(10, 1)}},
		{"first byte of an extent", []write{w(100, 1, 2, 3, 4)}, []write{w(100, 7, 2, 3, 4)}},
		{"last byte of an extent", []write{w(100, 1, 2, 3, 4)}, []write{w(100, 1, 2, 3, 7)}},
		{"one extent inside the other", []write{w(100, 1, 2, 3, 4, 5, 6)}, []write{w(102, 3, 4)}},
		{"lowest of differences in three pages", []write{w(3*pageSize+1, 1), w(pageSize+5, 1), w(5*pageSize, 1)}, nil},
		{"zero written over a difference", []write{w(64, 1), w(64, 0)}, nil},
	} {
		a, b := NewSparse(modelPages*pageSize), NewSparse(modelPages*pageSize)
		ra, rb := make([]byte, modelPages*pageSize), make([]byte, modelPages*pageSize)
		for _, x := range tc.a {
			copy(ra[x.addr:], x.data)
			if err := a.WriteFrom(x.addr, x.data); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range tc.b {
			copy(rb[x.addr:], x.data)
			if err := b.WriteFrom(x.addr, x.data); err != nil {
				t.Fatal(err)
			}
		}
		wantAddr, wantEqual := refFirstDiff(ra, rb)
		for _, dir := range []struct {
			name string
			x, y *Sparse
		}{{"a,b", a, b}, {"b,a", b, a}} {
			if addr, equal := FirstDiff(dir.x, dir.y); addr != wantAddr || equal != wantEqual {
				t.Errorf("%s: FirstDiff(%s) = %#x, %v; byte by byte %#x, %v", tc.name, dir.name, addr, equal, wantAddr, wantEqual)
			}
		}
	}

	// And over stores with a history: written, Reset and written again,
	// the second a copy of the first with one byte changed or not.
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		a, b := NewSparse(modelPages*pageSize), NewSparse(modelPages*pageSize)
		ra, rb := make([]byte, modelPages*pageSize), make([]byte, modelPages*pageSize)
		for round := 0; round < 2; round++ {
			a.Reset()
			b.Reset()
			clear(ra)
			clear(rb)
			for k := 0; k < 10; k++ {
				// The same write on both sides, then one of its own on each.
				same := rng.Uint64()
				modelWrite(t, a, ra, sim.NewRand(same))
				modelWrite(t, b, rb, sim.NewRand(same))
				if rng.Intn(4) == 0 {
					modelWrite(t, a, ra, rng)
				}
				if rng.Intn(4) == 0 {
					modelWrite(t, b, rb, rng)
				}
			}
		}
		wantAddr, wantEqual := refFirstDiff(ra, rb)
		if addr, equal := FirstDiff(a, b); addr != wantAddr || equal != wantEqual {
			t.Errorf("seed %d: FirstDiff = %#x, %v; byte by byte %#x, %v", seed, addr, equal, wantAddr, wantEqual)
		}
	}
}

// TestSnapshotIgnoresHistory: the blob says what the store holds, not how
// it came to hold it. A store that was written, Reset and written again
// encodes like a fresh store given the second round of writes, and a
// blob restored and encoded again is the same blob.
func TestSnapshotIgnoresHistory(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		used := NewSparse((modelPages + 1) * pageSize)
		scratch := make([]byte, modelPages*pageSize)
		for k := 0; k < 40; k++ {
			modelWrite(t, used, scratch, rng)
		}
		used.Reset()

		fresh := NewSparse((modelPages + 1) * pageSize)
		ref := make([]byte, modelPages*pageSize)
		for k := 0; k < 40; k++ {
			same := rng.Uint64()
			modelWrite(t, used, scratch, sim.NewRand(same))
			modelWrite(t, fresh, ref, sim.NewRand(same))
		}
		// A page that is mapped and all zero (the model writes stop short
		// of the store's last page) must not reach the blob.
		if err := used.Write64(modelPages*pageSize+8, 0); err != nil {
			t.Fatal(err)
		}
		want := snapshotOf(fresh)
		if got := snapshotOf(used); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: a reused store encodes to %d bytes that differ from a fresh store's %d", seed, len(got), len(want))
		}

		restored := NewSparse((modelPages + 1) * pageSize)
		for k := 0; k < 10; k++ {
			modelWrite(t, restored, scratch, rng) // restored over
		}
		if err := restored.Restore(snap.NewReader(want)); err != nil {
			t.Fatal(err)
		}
		if got := snapshotOf(restored); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Snapshot, Restore, Snapshot is not the identity", seed)
		}
		checkExtents(t, restored, "after Restore")
		checkImage(t, restored, ref, rng, "after Restore")
	}
}
