package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to attribute sampled CPU time to packages. It
// exists because the benchmark may depend on the standard library only,
// and because a sampled profile is the one view from outside that splits
// a single Machine.Run between the simulator's layers.

// errProto reports a malformed protobuf message.
var errProto = errors.New("pprof: malformed profile")

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped; profile.proto has none the reader needs.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	for {
		key, err := p.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			val, err = p.varint()
			return field, val, nil, err
		case 2:
			n, err := p.varint()
			if err != nil || n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
			return field, 0, data, nil
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(p.b) < n {
				return 0, 0, nil, errProto
			}
			p.b = p.b[n:]
		default:
			return 0, 0, nil, errProto
		}
	}
}

// repeated appends a repeated scalar field's values, packed or not.
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// cpuSample is one stack with the CPU time sampled on it.
type cpuSample struct {
	stack []string // function names, leaf first, inlined callees before their callers
	nanos int64
}

// decodeCPUProfile parses a gzipped CPU profile into its samples.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		nTypes    int
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.vals, err = repeated(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // line; the first line is the innermost inlined function
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if nTypes == 0 {
		return nil, errProto
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) != nTypes {
			return nil, errProto
		}
		cs := cpuSample{nanos: int64(s.vals[nTypes-1])} // CPU profiles end with cpu/nanoseconds
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuPackages are the simulator packages that get a <pkg>.cpu_s metric.
// "batch" is listed although the benchmark never imports it: it is in
// the program's call graph today, and its bucket reading 0 is how a
// later deletion shows.
var cpuPackages = []string{
	"spu", "sim", "isa", "stats", "noc", "mem", "mfc", "ls", "dta", "cell", "program",
	"workloads", "prefetch", "snap", "harness", "batch", "service", "synth",
}

// gcRoots mark a stack as garbage-collector work wherever they appear in
// it: background mark/sweep/scavenge workers and allocation assists.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

// funcPackage returns the import path of the package a symbol such as
// "repro/internal/spu.(*SPU).Tick" or "runtime.mallocgc" belongs to.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain import paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// probeFunc is the speed probe's loop (probe.go); a stack it appears in
// is the benchmark's own calibration work, not the program's.
const probeFunc = "main.(*probeKernel).run"

// cpuBucket names the metric a sample's time is added to: host.gc_cpu_s
// for collector work, host.probe_cpu_s for the speed probe, <pkg>.cpu_s for a leaf frame in a simulator
// package, host.runtime_cpu_s for the rest of the Go runtime, and
// host.other_cpu_s for everything else (net/http, encoding/json, the
// benchmark itself).
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "host.gc_cpu_s"
		}
		if fn == probeFunc {
			return "host.probe_cpu_s"
		}
	}
	if len(stack) == 0 {
		return "host.other_cpu_s"
	}
	pkg := funcPackage(stack[0])
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		rest, _, _ = strings.Cut(rest, "/") // workloads/refcheck counts as workloads
		for _, known := range cpuPackages {
			if rest == known {
				return known + ".cpu_s"
			}
		}
		return "host.other_cpu_s"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "host.runtime_cpu_s"
	}
	return "host.other_cpu_s"
}

// cpuByBucket sums a profile's sampled seconds per cpuBucket name.
func cpuByBucket(gz []byte) (map[string]float64, error) {
	samples, err := decodeCPUProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[cpuBucket(s.stack)] += float64(s.nanos) / 1e9
	}
	return out, nil
}
