// Package ls models the per-SPE Local Store of the CellDTA machine
// (paper Table 2: 156 kB, 6-cycle latency, 3 ports). The local store
// holds thread code, the frames managed by the LSE, and the prefetch
// buffers that the DMA engine fills with global data.
//
// Three ports mirror the paper's configuration: one serves the SPU's
// LOAD/STORE/LSRD/LSWR accesses, one serves DMA traffic from the MFC and
// one serves the LSE's frame writes (arriving remote stores), so DMA and
// scheduler traffic do not steal SPU bandwidth (which is why the paper
// sees LS stalls "mostly hidden").
package ls

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// Port selects one of the local store's access ports.
type Port int

const (
	PortSPU Port = iota // SPU pipeline accesses
	PortMFC             // DMA engine reads/writes
	PortLSE             // frame writes from the scheduler
	NumPorts
)

func (p Port) String() string {
	switch p {
	case PortSPU:
		return "spu"
	case PortMFC:
		return "mfc"
	case PortLSE:
		return "lse"
	}
	return fmt.Sprintf("port(%d)", int(p))
}

// Config holds the local-store parameters.
type Config struct {
	SizeBytes int // 156 kB in the paper
	Latency   int // access latency in cycles (6)
	PortWidth int // bytes per port per cycle (16)
}

// DefaultConfig returns the paper's local-store parameters.
func DefaultConfig() Config {
	return Config{SizeBytes: 156 * 1024, Latency: 6, PortWidth: 16}
}

// LocalStore is the functional and timing model of one SPE's local
// store. It is passive: co-located components call Access for timing and
// the Read*/Write* methods for data.
//
// Only the written prefix of the store is backed by memory: a run that
// writes the first few kilobytes of a 156 kB store allocates a few
// kilobytes, and every address past the prefix reads as zero.
type LocalStore struct {
	cfg Config
	// data is the written prefix: len(data) is the high-water mark of
	// the writes since the last Reset. The array's spare capacity is
	// kept zero, so growing within it is a reslice.
	data     []byte
	portFree [NumPorts]sim.Cycle
}

// minGrow is the smallest backing array a write allocates, so the code
// load, which fills a store a word at a time, does not reallocate at
// every doubling from 8 bytes.
const minGrow = 1 << 10

// New returns a zeroed local store.
func New(cfg Config) *LocalStore {
	if cfg.SizeBytes <= 0 || cfg.PortWidth <= 0 {
		panic("ls: non-positive configuration")
	}
	return &LocalStore{cfg: cfg, data: []byte{}}
}

// Size returns the capacity in bytes.
func (l *LocalStore) Size() int { return l.cfg.SizeBytes }

// Latency returns the configured access latency.
func (l *LocalStore) Latency() int { return l.cfg.Latency }

// Occupancy returns the cycles an n-byte access holds its port.
func (l *LocalStore) Occupancy(n int) sim.Cycle {
	return max(sim.Cycle((n+l.cfg.PortWidth-1)/l.cfg.PortWidth), 1)
}

// Reset zeroes the store contents and port bookings for machine reuse.
// The backing array is kept, and only the written prefix is cleared —
// pooled machines reset in time proportional to the bytes the previous
// run actually touched.
func (l *LocalStore) Reset() {
	clear(l.data)
	l.data = l.data[:0]
	l.portFree = [NumPorts]sim.Cycle{}
}

// grow extends the written prefix to end bytes, which the caller has
// checked against the store's size.
func (l *LocalStore) grow(end int) {
	switch {
	case end <= len(l.data):
	case end <= cap(l.data):
		l.data = l.data[:end]
	default:
		data := make([]byte, end, min(max(end, 2*cap(l.data), minGrow), l.cfg.SizeBytes))
		copy(data, l.data)
		l.data = data
	}
}

// Access books an n-byte access on port starting no earlier than now and
// returns the cycle at which the data is available (for reads) or
// durably written (for writes). Port occupancy is ceil(n/PortWidth)
// cycles (Occupancy); the pipeline latency is added on top.
func (l *LocalStore) Access(port Port, now sim.Cycle, n int) sim.Cycle {
	occ := l.Occupancy(n)
	start := max(now, l.portFree[port])
	l.portFree[port] = start + occ
	return start + occ - 1 + sim.Cycle(l.cfg.Latency)
}

// check reports an access of n bytes at addr that leaves the store.
// addr > size-n cannot overflow, unlike addr+n > size.
func (l *LocalStore) check(addr int64, n int) error {
	if size := int64(l.cfg.SizeBytes); addr < 0 || addr > size-int64(n) {
		return fmt.Errorf("ls: access [%#x,+%d) outside [0,%#x)", addr, n, size)
	}
	return nil
}

// extend checks an n-byte write at addr and grows the written prefix
// to cover it.
func (l *LocalStore) extend(addr int64, n int) error {
	if err := l.check(addr, n); err != nil {
		return err
	}
	l.grow(int(addr) + n)
	return nil
}

// ReadBytes fills buf from addr.
func (l *LocalStore) ReadBytes(addr int64, buf []byte) error {
	if err := l.check(addr, len(buf)); err != nil {
		return err
	}
	n := 0
	if addr < int64(len(l.data)) {
		n = copy(buf, l.data[addr:])
	}
	clear(buf[n:])
	return nil
}

// WriteBytes copies data to addr.
func (l *LocalStore) WriteBytes(addr int64, data []byte) error {
	if err := l.extend(addr, len(data)); err != nil {
		return err
	}
	copy(l.data[addr:], data)
	return nil
}

// CopyFrom copies the first n bytes of src to the same addresses of l.
func (l *LocalStore) CopyFrom(src *LocalStore, n int) error {
	if err := l.extend(0, n); err != nil {
		return err
	}
	clear(l.data[copy(l.data[:n], src.data[:min(n, len(src.data))]):n])
	return nil
}

// The word accessors below take a fast path for accesses inside the
// written prefix; ReadBytes and extend handle everything else.

// Read32 returns the sign-extended 32-bit word at addr.
func (l *LocalStore) Read32(addr int64) (int64, error) {
	if last := len(l.data) - 4; last >= 0 && uint64(addr) <= uint64(last) {
		return int64(int32(binary.LittleEndian.Uint32(l.data[addr:]))), nil
	}
	var b [4]byte
	if err := l.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return int64(int32(binary.LittleEndian.Uint32(b[:]))), nil
}

// Read64 returns the 64-bit word at addr.
func (l *LocalStore) Read64(addr int64) (int64, error) {
	if last := len(l.data) - 8; last >= 0 && uint64(addr) <= uint64(last) {
		return int64(binary.LittleEndian.Uint64(l.data[addr:])), nil
	}
	var b [8]byte
	if err := l.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

// Write32 stores the low 32 bits of v at addr.
func (l *LocalStore) Write32(addr int64, v int64) error {
	if last := len(l.data) - 4; last < 0 || uint64(addr) > uint64(last) {
		if err := l.extend(addr, 4); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(l.data[addr:], uint32(v))
	return nil
}

// Write64 stores v at addr.
func (l *LocalStore) Write64(addr int64, v int64) error {
	if last := len(l.data) - 8; last < 0 || uint64(addr) > uint64(last) {
		if err := l.extend(addr, 8); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(l.data[addr:], uint64(v))
	return nil
}
