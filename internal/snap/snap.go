// Package snap is the binary serialisation layer of the checkpoint
// subsystem: a Codec every component walks its state through, plus a
// versioned, checksummed envelope that lets a restore refuse a stale or
// foreign snapshot before touching machine state.
//
// Design rules, enforced by convention across the component walks:
//
//   - One walk per component: each field is named once, in a walk over
//     a Codec that either writes the field or reads it back (the
//     savestate pattern emulators use). Work that only happens on read —
//     rebuilding slabs and free lists, resolving references, structural
//     checks — sits under Reading.
//   - Deterministic bytes: two snapshots of identical machine state are
//     byte-identical. Maps are walked in key order (Map), heaps in key
//     order (Heap), and every slice is length-prefixed so the stream is
//     self-delimiting.
//   - No reflection, no interfaces: each component walks its fields
//     explicitly, so the format is reviewable and version bumps are
//     deliberate (see Envelope.Version).
//   - Sticky errors: the first failure is recorded and every later read
//     becomes a no-op returning zero values, so a walk runs to its end
//     and the caller checks Err once.
package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Codec is one direction of a walk over a snapshot payload: an encoder
// appends each field it is handed, a decoder overwrites each field with
// the next value of its payload.
type Codec struct {
	reading bool
	buf     []byte // the payload: appended to, or read from at off
	off     int
	err     error // the first failure; sticky
}

// NewEncoder returns a codec that writes a payload.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a codec that reads payload back.
func NewDecoder(payload []byte) *Codec { return &Codec{reading: true, buf: payload} }

// Reading reports whether the walk is decoding.
func (c *Codec) Reading() bool { return c.reading }

// Payload returns the bytes an encoder has written.
func (c *Codec) Payload() []byte { return c.buf }

// Err returns the first failure of the walk, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records a failure unless one is recorded already: a structural
// mismatch found on read, or a state that cannot be written.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format+" (snapshot offset %d)", append(args, c.off)...)
	}
}

// ExpectEOF fails a decoder unless it consumed the whole payload — a
// restore's final check that the walk read what was written.
func (c *Codec) ExpectEOF() error {
	if c.off != len(c.buf) {
		c.Fail("snap: %d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

// Int walks a signed integer of any width as a zigzag varint.
func Int[T ~int | ~int32 | ~int64](c *Codec, p *T) {
	if !c.reading {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	if c.err != nil {
		*p = 0
		return
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.Fail("snap: bad varint")
	}
	*p, c.off = T(v), c.off+max(n, 0)
}

// Ints walks a fixed-length run of integers, one Int each.
func Ints[T ~int | ~int32 | ~int64](c *Codec, s []T) {
	for i := range s {
		Int(c, &s[i])
	}
}

// Byte walks a one-byte value.
func Byte[T ~uint8](c *Codec, p *T) {
	switch {
	case !c.reading:
		c.buf = append(c.buf, uint8(*p))
	case c.err == nil && c.off < len(c.buf):
		*p = T(c.buf[c.off])
		c.off++
	default:
		c.Fail("snap: truncated byte")
		*p = 0
	}
}

// Bool walks a bool as one byte.
func (c *Codec) Bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	if Byte(c, &b); c.reading {
		*p = b != 0
	}
}

// Bytes walks a length-prefixed byte slice. A nil slice round-trips as
// nil, an empty one as empty (the distinction matters for buffers whose
// nil-ness is load-bearing). A read allocates afresh, so restored state
// never aliases the payload.
func (c *Codec) Bytes(p *[]byte) {
	if !c.reading {
		if *p == nil {
			c.buf = binary.AppendUvarint(c.buf, 0)
			return
		}
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p))+1)
		c.buf = append(c.buf, *p...)
		return
	}
	*p = nil
	if c.err != nil {
		return
	}
	n, k := binary.Uvarint(c.buf[c.off:])
	switch {
	case k <= 0:
		c.Fail("snap: bad uvarint")
	case n > uint64(len(c.buf)-c.off-k)+1:
		c.Fail("snap: truncated bytes (%d wanted)", n-1)
	case n > 0:
		c.off += k
		*p = append([]byte{}, c.buf[c.off:c.off+int(n-1)]...)
		c.off += int(n - 1)
	default:
		c.off += k
	}
}

// Len walks the element count n of a sequence that follows. A read
// fails on a count the rest of the payload cannot hold (every element
// takes at least one byte), so a corrupt count never drives a huge
// allocation or loop.
func (c *Codec) Len(n int) int {
	if Int(c, &n); c.reading && (n < 0 || n > len(c.buf)-c.off) {
		c.Fail("snap: bad count %d", n)
		return 0
	}
	return n
}

// Slice walks a length-prefixed slice, each element through walk. A
// read reuses the backing array and zeroes each element before its walk.
func Slice[T any](c *Codec, s *[]T, walk func(*Codec, *T)) {
	n := c.Len(len(*s))
	if c.reading {
		*s = slices.Grow((*s)[:0], n)[:n]
		clear(*s)
	}
	for i := range *s {
		walk(c, &(*s)[i])
	}
}

// Fixed walks a slice whose length the machine's configuration fixes:
// the length is written, and a read fails unless it matches. what names
// the elements in the error ("noc: buses").
func Fixed[T any](c *Codec, what string, s []T, walk func(*Codec, *T)) {
	if n := c.Len(len(s)); n != len(s) {
		c.Fail("%s: snapshot has %d, this machine %d", what, n, len(s))
		return
	}
	for i := range s {
		walk(c, &s[i])
	}
}

// Heap walks a binary min-heap in key order. Two heaps holding the same
// entries can differ in layout, so the entries are written sorted and
// equal heaps give equal bytes. A read sorts what it read — a sorted
// slice is a valid heap — so it accepts the entries in any order.
func Heap[T interface{ Before(T) bool }](c *Codec, h *[]T, walk func(*Codec, *T)) {
	if !c.reading {
		sorted := slices.SortedFunc(slices.Values(*h), byKey[T])
		Slice(c, &sorted, walk)
		return
	}
	Slice(c, h, walk)
	slices.SortFunc(*h, byKey[T])
}

func byKey[T interface{ Before(T) bool }](a, b T) int {
	switch {
	case a.Before(b):
		return -1
	case b.Before(a):
		return 1
	}
	return 0
}

// Map walks a map's entries in ascending key order under compare
// (cmp.Compare for an ordered key), so the bytes do not depend on
// iteration order. A read clears the map and refills it.
func Map[K comparable, V any](c *Codec, m map[K]V, compare func(K, K) int, walk func(*Codec, *K, *V)) {
	n := c.Len(len(m))
	if !c.reading {
		for _, k := range slices.SortedFunc(maps.Keys(m), compare) {
			v := m[k]
			walk(c, &k, &v)
		}
		return
	}
	clear(m)
	for range n {
		var k K
		var v V
		walk(c, &k, &v)
		m[k] = v
	}
}

// magic identifies a snapshot envelope. Bumping it (rather than
// Version) is reserved for layout changes of the envelope itself.
var magic = [8]byte{'D', 'T', 'A', 'S', 'N', 'A', 'P', 0}

// Envelope carries one snapshot payload with everything a cache needs
// to refuse a stale or foreign snapshot before touching machine state:
// a format version, the identity key of the machine that produced it
// (configuration + program digest + capture cycle), and a payload
// checksum.
type Envelope struct {
	Version  uint32
	Identity string // content-addressed snapshot key (see cell.SnapshotKey)
	Payload  []byte
}

// Envelope decode errors, distinguished so callers can report a version
// skew differently from corruption.
var (
	ErrMagic    = errors.New("snap: not a snapshot (bad magic)")
	ErrChecksum = errors.New("snap: payload checksum mismatch")
)

// VersionError reports a snapshot written by a different format
// version than the reader understands.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snap: snapshot version %d, this build reads %d", e.Got, e.Want)
}

// Encode frames payload into a self-validating envelope.
func Encode(version uint32, identity string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(magic)+4+8+len(identity)+8+len(payload)+len(sum))
	out = append(out, magic[:]...)
	out = binary.BigEndian.AppendUint32(out, version)
	out = binary.AppendUvarint(out, uint64(len(identity)))
	out = append(out, identity...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = append(out, sum[:]...)
	return out
}

// Decode validates an envelope and returns it. wantVersion is the
// format version this build writes; a mismatch returns *VersionError
// (the payload is not inspected further — a bumped version promises
// nothing about the old layout).
func Decode(data []byte, wantVersion uint32) (*Envelope, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrMagic
	}
	off := len(magic)
	version := binary.BigEndian.Uint32(data[off:])
	off += 4
	if version != wantVersion {
		return nil, &VersionError{Got: version, Want: wantVersion}
	}
	idLen, n := binary.Uvarint(data[off:])
	if n <= 0 || uint64(len(data)-off-n) < idLen {
		return nil, ErrMagic
	}
	off += n
	identity := string(data[off : off+int(idLen)])
	off += int(idLen)
	payLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, ErrMagic
	}
	off += n
	if uint64(len(data)-off) != payLen+sha256.Size {
		return nil, ErrMagic
	}
	payload := data[off : off+int(payLen)]
	var sum [sha256.Size]byte
	copy(sum[:], data[off+int(payLen):])
	if sha256.Sum256(payload) != sum {
		return nil, ErrChecksum
	}
	return &Envelope{Version: version, Identity: identity, Payload: payload}, nil
}
