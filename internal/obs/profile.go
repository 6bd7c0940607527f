package obs

// The guest profile writer encodes stats.Profile as pprof protobuf, so
// `go tool pprof -top/-flamegraph` works directly on a simulated run.
// profile.proto is encoded by hand (varints and length-delimited
// submessages are the only wire types the format needs).
//
// This is the *guest* side of the repo's two profiling layers: samples
// are simulated SPU cycles attributed to (program, template block, PC,
// stall cause). The *host* side — profiling the simulator process
// itself — is the -cpuprofile/-memprofile flags of cmd/dta and dtad's
// -debug-addr (net/http/pprof).
//
// Profile shape:
//
//   - sample types: "cycles" (every simulated cycle) plus one per
//     stats.Cause, all in unit "cycles". `-sample_index=blocking_read`
//     etc. select a cause; the default index is total cycles.
//   - stacks (leaf first): block@PC -> template -> run label. The leaf
//     function is "<program>.<template>.<block>" with Line.line = PC,
//     so `-top` aggregates by code block and `granularity=lines`
//     resolves individual instructions. Idle cycles attribute to the
//     synthetic "(idle)" function.
//
// Output is deterministic: samples are emitted in stats.Profile's
// canonical order and no timestamps are recorded, so identical runs
// encode to identical bytes.

import (
	"compress/gzip"
	"fmt"
	"io"

	"repro/internal/program"
	"repro/internal/stats"
)

// WriteProfile encodes the runs' guest profiles (Run.Prof, symbolized
// by Run.Prog) as one gzipped pprof protobuf. The runs merge into a
// single profile, distinguished by their root frames: the run label, or
// the program name when the label is empty.
func WriteProfile(w io.Writer, runs []Run) error {
	e := newEncoder()
	for _, r := range runs {
		if err := e.addRun(r); err != nil {
			return err
		}
	}
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(e.marshal()); err != nil {
		return err
	}
	return zw.Close()
}

// encoder accumulates the deduplicated pprof tables.
type encoder struct {
	strs   map[string]int64
	strtab []string

	fnByName map[string]uint64
	fns      []function

	locByKey map[locKey]uint64
	locs     []location

	samples []sample
}

type function struct {
	id       uint64
	name     int64 // string index
	filename int64
}

type locKey struct {
	fn   uint64
	line int64
}

type location struct {
	id   uint64
	fn   uint64
	line int64
}

type sample struct {
	stack  []uint64 // leaf first
	values []int64  // [cycles, per-cause...]
}

func newEncoder() *encoder {
	e := &encoder{
		strs:     map[string]int64{"": 0},
		strtab:   []string{""},
		fnByName: map[string]uint64{},
		locByKey: map[locKey]uint64{},
	}
	return e
}

func (e *encoder) str(s string) int64 {
	if i, ok := e.strs[s]; ok {
		return i
	}
	i := int64(len(e.strtab))
	e.strs[s] = i
	e.strtab = append(e.strtab, s)
	return i
}

func (e *encoder) fn(name, filename string) uint64 {
	if id, ok := e.fnByName[name]; ok {
		return id
	}
	id := uint64(len(e.fns) + 1)
	e.fnByName[name] = id
	e.fns = append(e.fns, function{id: id, name: e.str(name), filename: e.str(filename)})
	return id
}

func (e *encoder) loc(fn uint64, line int64) uint64 {
	k := locKey{fn: fn, line: line}
	if id, ok := e.locByKey[k]; ok {
		return id
	}
	id := uint64(len(e.locs) + 1)
	e.locByKey[k] = id
	e.locs = append(e.locs, location{id: id, fn: fn, line: line})
	return id
}

// addRun appends one run's samples, building its symbol tables.
func (e *encoder) addRun(r Run) error {
	if r.Prog == nil {
		return fmt.Errorf("obs: run %q has no program", r.Label)
	}
	label := r.Label
	if label == "" {
		label = r.Prog.Name
	}
	file := r.Prog.Name + ".dta"
	rootLoc := e.loc(e.fn(label, file), 0)
	idleLoc := e.loc(e.fn("(idle)", file), 0)

	for _, s := range r.Prof.Samples() {
		var stack []uint64
		switch {
		case s.Loc.Template < 0:
			stack = []uint64{idleLoc, rootLoc}
		case int(s.Loc.Template) >= len(r.Prog.Templates):
			return fmt.Errorf("obs: run %q: sample template %d out of range (%d templates)",
				label, s.Loc.Template, len(r.Prog.Templates))
		default:
			tmpl := r.Prog.Templates[s.Loc.Template]
			tname := r.Prog.Name + "." + tmpl.Name
			bname := tname + "." + program.BlockKind(s.Loc.Block).String()
			leaf := e.loc(e.fn(bname, file), int64(s.Loc.PC))
			parent := e.loc(e.fn(tname, file), 0)
			stack = []uint64{leaf, parent, rootLoc}
		}
		values := make([]int64, 1+int(stats.NumCauses))
		values[0] = s.Total
		for c := stats.Cause(0); c < stats.NumCauses; c++ {
			values[1+int(c)] = s.Causes[c]
		}
		e.samples = append(e.samples, sample{stack: stack, values: values})
	}
	return nil
}

// profile.proto field numbers (the subset the pprof reader needs).
const (
	fldSampleType  = 1
	fldSample      = 2
	fldLocation    = 4
	fldFunction    = 5
	fldStringTable = 6
	fldPeriodType  = 11
	fldPeriod      = 12
	fldDefaultType = 14

	fldVTType = 1
	fldVTUnit = 2

	fldSampleLocID = 1
	fldSampleValue = 2

	fldLocID   = 1
	fldLocLine = 4

	fldLineFnID = 1
	fldLineLine = 2

	fldFnID       = 1
	fldFnName     = 2
	fldFnFilename = 4
)

// marshal serializes the accumulated profile.
func (e *encoder) marshal() []byte {
	cycles := e.str("cycles")
	var out pbuf

	vt := func(typ int64) []byte {
		var b pbuf
		b.varint(fldVTType, uint64(typ))
		b.varint(fldVTUnit, uint64(cycles))
		return b.b
	}
	out.msg(fldSampleType, vt(cycles))
	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		out.msg(fldSampleType, vt(e.str(c.Slug())))
	}

	for _, s := range e.samples {
		var b pbuf
		b.packedU(fldSampleLocID, s.stack)
		b.packed(fldSampleValue, s.values)
		out.msg(fldSample, b.b)
	}

	for _, l := range e.locs {
		var line pbuf
		line.varint(fldLineFnID, l.fn)
		line.varint(fldLineLine, uint64(l.line))
		var b pbuf
		b.varint(fldLocID, l.id)
		b.msg(fldLocLine, line.b)
		out.msg(fldLocation, b.b)
	}

	for _, f := range e.fns {
		var b pbuf
		b.varint(fldFnID, f.id)
		b.varint(fldFnName, uint64(f.name))
		b.varint(fldFnFilename, uint64(f.filename))
		out.msg(fldFunction, b.b)
	}

	for _, s := range e.strtab {
		out.msg(fldStringTable, []byte(s))
	}

	out.msg(fldPeriodType, vt(cycles))
	out.varint(fldPeriod, 1)
	// Without this pprof defaults to the LAST sample type; the natural
	// default view is total cycles (the first).
	out.varint(fldDefaultType, uint64(cycles))
	return out.b
}

// pbuf is a minimal protobuf wire-format writer: varint (wire type 0)
// and length-delimited (wire type 2) cover all of profile.proto.
type pbuf struct {
	b []byte
}

func (p *pbuf) uvarint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) key(field, wire int) {
	p.uvarint(uint64(field)<<3 | uint64(wire))
}

// varint emits a varint-typed field. Zero values are emitted too:
// profile.proto readers treat missing and zero identically, but being
// explicit keeps the encoding independent of that equivalence.
func (p *pbuf) varint(field int, v uint64) {
	p.key(field, 0)
	p.uvarint(v)
}

// msg emits a length-delimited field (submessage, string, packed run).
func (p *pbuf) msg(field int, b []byte) {
	p.key(field, 2)
	p.uvarint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packed emits a packed repeated int64 field (samples' value vectors).
func (p *pbuf) packed(field int, vs []int64) {
	var body pbuf
	for _, v := range vs {
		body.uvarint(uint64(v))
	}
	p.msg(field, body.b)
}

// packedU emits a packed repeated uint64 field (location id stacks).
func (p *pbuf) packedU(field int, vs []uint64) {
	var body pbuf
	for _, v := range vs {
		body.uvarint(v)
	}
	p.msg(field, body.b)
}
