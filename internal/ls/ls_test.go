package ls

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/snap"
)

func TestAccessLatencyAndOccupancy(t *testing.T) {
	l := New(Config{SizeBytes: 1024, Latency: 6, PortWidth: 16})
	// 8-byte access: 1 cycle occupancy, ready at now+1-1+6.
	if got := l.Access(PortSPU, 10, 8); got != 16 {
		t.Fatalf("ready at %d, want 16", got)
	}
	// 128-byte access: 8 cycles occupancy.
	if got := l.Access(PortMFC, 10, 128); got != 10+8-1+6 {
		t.Fatalf("ready at %d, want %d", got, 10+8-1+6)
	}
}

func TestPortContentionQueues(t *testing.T) {
	l := New(Config{SizeBytes: 1024, Latency: 6, PortWidth: 16})
	first := l.Access(PortSPU, 0, 64) // 4 cycles occupancy: busy until 4
	second := l.Access(PortSPU, 1, 8) // must wait until cycle 4
	if second <= first-2 {
		t.Fatalf("second access at %d did not queue behind first (%d)", second, first)
	}
	if second != 4+6 {
		t.Fatalf("second access ready at %d, want %d: it starts when the port frees at 4", second, 4+6)
	}
}

func TestPortsAreIndependent(t *testing.T) {
	l := New(Config{SizeBytes: 1024, Latency: 6, PortWidth: 16})
	l.Access(PortSPU, 0, 64)
	ready := l.Access(PortMFC, 0, 8) // different port: no queueing
	if ready != 6 {
		t.Fatalf("MFC access ready at %d, want 6", ready)
	}
	// The SPU port queues behind its own booking (busy until 4) only.
	if ready := l.Access(PortSPU, 1, 8); ready != 4+6 {
		t.Fatalf("SPU access ready at %d, want %d", ready, 4+6)
	}
}

func TestFunctionalRoundTrip(t *testing.T) {
	l := New(DefaultConfig())
	if err := l.Write64(128, -99); err != nil {
		t.Fatal(err)
	}
	v, err := l.Read64(128)
	if err != nil || v != -99 {
		t.Fatalf("Read64 = %d, %v", v, err)
	}
	if err := l.Write32(200, -7); err != nil {
		t.Fatal(err)
	}
	v, err = l.Read32(200)
	if err != nil || v != -7 {
		t.Fatalf("Read32 = %d, %v (sign extension)", v, err)
	}
	data := []byte{9, 8, 7}
	if err := l.WriteBytes(300, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := l.ReadBytes(300, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v", got)
	}
}

func TestBoundsChecked(t *testing.T) {
	l := New(Config{SizeBytes: 256, Latency: 6, PortWidth: 16})
	buf := make([]byte, 4)
	for _, tc := range []struct {
		name   string
		access func() error
	}{
		{"straddling write", func() error { return l.Write64(252, 1) }},
		{"negative read", func() error { _, err := l.Read32(-1); return err }},
		{"oversized read", func() error { return l.ReadBytes(0, make([]byte, 257)) }},
		// addr+width overflows int64 for the last addresses.
		{"Read32 at MaxInt64-1", func() error { _, err := l.Read32(math.MaxInt64 - 1); return err }},
		{"Read64 at MaxInt64-3", func() error { _, err := l.Read64(math.MaxInt64 - 3); return err }},
		{"Write32 at MaxInt64-1", func() error { return l.Write32(math.MaxInt64-1, 1) }},
		{"Write64 at MaxInt64-3", func() error { return l.Write64(math.MaxInt64-3, 1) }},
		{"ReadBytes at MaxInt64-1", func() error { return l.ReadBytes(math.MaxInt64-1, buf) }},
		{"WriteBytes at MaxInt64-1", func() error { return l.WriteBytes(math.MaxInt64-1, buf) }},
	} {
		if err := tc.access(); err == nil || !strings.HasPrefix(err.Error(), "ls: access") {
			t.Errorf("%s: err = %v, want an ls: access fault", tc.name, err)
		}
	}
	if len(l.data) != 0 {
		t.Fatalf("refused accesses grew the store to %d bytes", len(l.data))
	}
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(0x1000, 4096)
	p1, ok := a.Alloc(100)
	if !ok || p1 != 0x1000 {
		t.Fatalf("Alloc = %#x, %v", p1, ok)
	}
	p2, ok := a.Alloc(16)
	if !ok || p2 != 0x1000+112 { // 100 rounds to 112
		t.Fatalf("second Alloc = %#x, want %#x", p2, 0x1000+112)
	}
	if a.LiveBytes() != 128 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	a.Free(p1)
	a.Free(p2)
	if a.LiveBytes() != 0 || a.FreeBytes() != 4096 || a.LargestFree() != 4096 {
		t.Fatalf("after frees: live=%d free=%d largest=%d",
			a.LiveBytes(), a.FreeBytes(), a.LargestFree())
	}
	if a.PeakBytes() != 128 {
		t.Fatalf("PeakBytes = %d", a.PeakBytes())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(0, 64)
	if _, ok := a.Alloc(48); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := a.Alloc(32); ok {
		t.Fatal("over-allocation succeeded")
	}
	if _, ok := a.Alloc(16); !ok {
		t.Fatal("exact-fit tail alloc failed")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(0, 256)
	p, _ := a.Alloc(16)
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestAllocatorForeignFreePanics(t *testing.T) {
	a := NewAllocator(0, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign free did not panic")
		}
	}()
	a.Free(0x40)
}

// Property: random alloc/free sequences never hand out overlapping
// blocks, and freeing everything restores a single maximal span.
func TestAllocatorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		const size = 1 << 14
		a := NewAllocator(0, size)
		type block struct{ addr, n int }
		var liveList []block
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 || len(liveList) == 0 {
				n := 1 + rng.Intn(500)
				addr, ok := a.Alloc(n)
				if !ok {
					continue
				}
				rounded := roundUp(n)
				// Overlap check against all live blocks.
				for _, b := range liveList {
					if addr < b.addr+b.n && b.addr < addr+rounded {
						return false
					}
				}
				if addr < 0 || addr+rounded > size {
					return false
				}
				liveList = append(liveList, block{addr, rounded})
			} else {
				i := rng.Intn(len(liveList))
				a.Free(liveList[i].addr)
				liveList = append(liveList[:i], liveList[i+1:]...)
			}
		}
		for _, b := range liveList {
			a.Free(b.addr)
		}
		return a.FreeBytes() == size && a.LargestFree() == size && a.LiveBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The store backs only its written prefix: the tests below pin what
// that may and may not change.

// TestReadsPastBackingAreZero: a fresh store allocates nothing, reads
// anywhere inside its size see zeros, and reads do not grow it.
func TestReadsPastBackingAreZero(t *testing.T) {
	l := New(DefaultConfig())
	if err := l.Write32(0, -1); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{8, 1 << 12, int64(l.Size()) - 8} {
		if v, err := l.Read64(addr); err != nil || v != 0 {
			t.Fatalf("Read64(%#x) = %d, %v; want 0", addr, v, err)
		}
		if v, err := l.Read32(addr + 4); err != nil || v != 0 {
			t.Fatalf("Read32(%#x) = %d, %v; want 0", addr+4, v, err)
		}
	}
	buf := []byte{1, 2, 3}
	if err := l.ReadBytes(100, buf); err != nil || !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("ReadBytes past the backing = %v, %v", buf, err)
	}
	if len(l.data) != 4 {
		t.Fatalf("reads moved the written prefix to %d bytes, want 4", len(l.data))
	}
}

// TestReadStraddlingBackingEnd: a word that starts inside the written
// prefix and ends past it reads the written bytes and zeros.
func TestReadStraddlingBackingEnd(t *testing.T) {
	l := New(DefaultConfig())
	if err := l.WriteBytes(0, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if v, err := l.Read32(4); err != nil || v != 0x0605 {
		t.Fatalf("Read32(4) = %#x, %v; want 0x605", v, err)
	}
	if v, err := l.Read64(0); err != nil || v != 0x060504030201 {
		t.Fatalf("Read64(0) = %#x, %v; want 0x60504030201", v, err)
	}
	if v, err := l.Read64(2); err != nil || v != 0x06050403 {
		t.Fatalf("Read64(2) = %#x, %v; want 0x6050403", v, err)
	}
}

// TestWritesGrowAndResetKeeps: a write extends the written prefix to
// its end, past the previous backing array included; Reset zeroes the
// prefix and keeps the array, so a reused store writes without
// allocating.
func TestWritesGrowAndResetKeeps(t *testing.T) {
	l := New(DefaultConfig())
	if cap(l.data) != 0 {
		t.Fatalf("a fresh store backs %d bytes", cap(l.data))
	}
	if err := l.Write64(16, 7); err != nil {
		t.Fatal(err)
	}
	if len(l.data) != 24 {
		t.Fatalf("written prefix %d bytes after a write ending at 24", len(l.data))
	}
	far := int64(3 * minGrow)
	if err := l.Write32(far, 9); err != nil {
		t.Fatal(err)
	}
	if len(l.data) != int(far)+4 {
		t.Fatalf("written prefix %d bytes, want %d", len(l.data), far+4)
	}
	if v, _ := l.Read64(16); v != 7 {
		t.Fatalf("growing lost the earlier write: Read64(16) = %d", v)
	}
	backing := cap(l.data)
	l.Reset()
	if len(l.data) != 0 || cap(l.data) != backing {
		t.Fatalf("after Reset: prefix %d bytes, backing %d; want 0 and %d", len(l.data), cap(l.data), backing)
	}
	for _, addr := range []int64{16, far} {
		if v, _ := l.Read64(addr); v != 0 {
			t.Fatalf("Read64(%#x) = %d after Reset", addr, v)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		l.Reset()
		if err := l.Write32(far, 9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("rewriting a Reset store allocates %.0f times", n)
	}
	for _, b := range l.data[:len(l.data)-4] {
		if b != 0 {
			t.Fatal("Reset left a written byte behind")
		}
	}
}

// TestWalkRoundTripTrimmedMidWord: a snapshot carries the written
// prefix without its trailing zeros — here ending inside a word — and
// restoring it into a store with other content reproduces every byte
// and the encoding.
func TestWalkRoundTripTrimmedMidWord(t *testing.T) {
	src := New(DefaultConfig())
	if err := src.Write64(40, 0x0102); err != nil { // content ends at byte 42
		t.Fatal(err)
	}
	src.Access(PortMFC, 3, 64)
	enc := snap.NewEncoder()
	src.Walk(enc)

	dst := New(DefaultConfig())
	if err := dst.Write64(200, -1); err != nil {
		t.Fatal(err)
	}
	dec := snap.NewDecoder(enc.Payload())
	dst.Walk(dec)
	if err := dec.ExpectEOF(); err != nil {
		t.Fatal(err)
	}
	if len(dst.data) != 42 {
		t.Fatalf("restored prefix %d bytes, want the 42 the trimmed content holds", len(dst.data))
	}
	for _, addr := range []int64{40, 200} {
		w, _ := src.Read64(addr)
		if g, _ := dst.Read64(addr); g != w {
			t.Fatalf("Read64(%#x) = %#x after restore, want %#x", addr, g, w)
		}
	}
	again := snap.NewEncoder()
	dst.Walk(again)
	if !bytes.Equal(again.Payload(), enc.Payload()) {
		t.Fatal("the restored store encodes differently")
	}
}

// TestCopyFromPastSourceBacking: copying more bytes than the source
// has written copies its prefix and zeros the rest of the range in the
// destination, without a scratch buffer.
func TestCopyFromPastSourceBacking(t *testing.T) {
	src, dst := New(DefaultConfig()), New(DefaultConfig())
	if err := src.WriteBytes(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteBytes(0, bytes.Repeat([]byte{9}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := dst.CopyFrom(src, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := dst.ReadBytes(0, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9}; !bytes.Equal(got, want) {
		t.Fatalf("after CopyFrom: %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := dst.CopyFrom(src, 12); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CopyFrom allocates %.0f times", n)
	}
	if err := dst.CopyFrom(src, dst.Size()+1); err == nil {
		t.Fatal("CopyFrom past the store's size accepted")
	}
}
