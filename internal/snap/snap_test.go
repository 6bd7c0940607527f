package snap

import (
	"bytes"
	"cmp"
	"errors"
	"reflect"
	"testing"
)

// fields is one value of every kind the codec walks.
type fields struct {
	u8        uint8
	yes, no   bool
	i64       int64
	i32       int32
	n         int
	b, nb, eb []byte
	s         []int32
	m         map[int64]int
	h         []key
	fixed     []int64
}

// key is a heap entry ordered by (at, seq).
type key struct{ at, seq int64 }

func (k key) Before(o key) bool { return k.at < o.at || k.at == o.at && k.seq < o.seq }

func (f *fields) walk(c *Codec) {
	Byte(c, &f.u8)
	c.Bool(&f.yes)
	c.Bool(&f.no)
	Int(c, &f.i64)
	Int(c, &f.i32)
	Int(c, &f.n)
	c.Bytes(&f.b)
	c.Bytes(&f.nb)
	c.Bytes(&f.eb)
	Slice(c, &f.s, Int[int32])
	Map(c, f.m, cmp.Compare[int64], func(c *Codec, k *int64, v *int) {
		Int(c, k)
		Int(c, v)
	})
	Heap(c, &f.h, func(c *Codec, k *key) {
		Int(c, &k.at)
		Int(c, &k.seq)
	})
	Fixed(c, "fixed", f.fixed, Int[int64])
}

// TestRoundTrip: one walk writes every kind of field and reads it back
// unchanged; a heap is written in key order whatever its layout.
func TestRoundTrip(t *testing.T) {
	in := fields{u8: 7, yes: true, i64: -12345678901, i32: -7, n: -42,
		b: []byte{1, 2, 3}, eb: []byte{}, s: []int32{5, -6},
		m: map[int64]int{3: 30, -1: 10, 2: 20}, h: []key{{1, 2}, {2, 1}, {1, 3}},
		fixed: []int64{8, 9}}
	w := NewEncoder()
	in.walk(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	out := fields{m: map[int64]int{99: 1}, fixed: make([]int64, 2), s: []int32{1, 2, 3, 4}}
	r := NewDecoder(w.Payload())
	out.walk(r)
	if err := r.ExpectEOF(); err != nil {
		t.Fatal(err)
	}
	want := in
	want.h = []key{{1, 2}, {1, 3}, {2, 1}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, want)
	}
	if out.nb != nil || out.eb == nil {
		t.Errorf("nil and empty byte slices: %v, %v", out.nb, out.eb)
	}
	w2 := NewEncoder()
	out.walk(w2)
	if !bytes.Equal(w.Payload(), w2.Payload()) {
		t.Error("re-encoding a decoded value changed its bytes")
	}

	// A length the machine fixes must match on read.
	out.fixed = make([]int64, 3)
	r = NewDecoder(w.Payload())
	if out.walk(r); r.Err() == nil {
		t.Error("a Fixed length mismatch was accepted")
	}
}

func TestStickyError(t *testing.T) {
	c := NewDecoder([]byte{0x80}) // truncated varint
	var v int64
	Int(c, &v)
	if c.Err() == nil {
		t.Fatal("expected error")
	}
	first := c.Err()
	// Every further read is a quiet no-op preserving the first error.
	u8, b := uint8(9), []byte{1}
	Byte(c, &u8)
	Int(c, &v)
	c.Bytes(&b)
	if c.Err() != first {
		t.Errorf("error not sticky: %v vs %v", c.Err(), first)
	}
	if u8 != 0 || v != 0 || b != nil {
		t.Errorf("reads after an error gave %d, %d, %v; want zero values", u8, v, b)
	}
	// A count the payload cannot hold fails before anything is allocated.
	w := NewEncoder()
	n := 1 << 40
	Int(w, &n)
	var s []int64
	c = NewDecoder(w.Payload())
	if Slice(c, &s, Int[int64]); c.Err() == nil || len(s) != 0 {
		t.Errorf("a count of 2^40 in a %d-byte payload: %d elements, err %v", len(w.Payload()), len(s), c.Err())
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewEncoder()
	a, b := 1, 2
	Int(w, &a)
	Int(w, &b)
	r := NewDecoder(w.Payload())
	Int(r, &a)
	if err := r.ExpectEOF(); err == nil {
		t.Fatal("ExpectEOF accepted trailing bytes")
	}
}

func TestEnvelope(t *testing.T) {
	payload := []byte("component state bytes")
	data := Encode(3, "sha256:abc", payload)
	env, err := Decode(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if env.Identity != "sha256:abc" || !bytes.Equal(env.Payload, payload) || env.Version != 3 {
		t.Errorf("envelope = %+v", env)
	}
}

func TestEnvelopeVersionMismatch(t *testing.T) {
	data := Encode(3, "k", []byte("p"))
	_, err := Decode(data, 4)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != 3 || ve.Want != 4 {
		t.Errorf("version error = %+v", ve)
	}
}

func TestEnvelopeCorruption(t *testing.T) {
	data := Encode(1, "k", []byte("payload"))
	if _, err := Decode(nil, 1); !errors.Is(err, ErrMagic) {
		t.Errorf("nil: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Decode(bad, 1); !errors.Is(err, ErrMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff // checksum byte
	if _, err := Decode(bad, 1); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[20] ^= 0xff // inside the payload region
	if _, err := Decode(bad, 1); err == nil {
		t.Error("payload flip accepted")
	}
}
