// Package obs is the observability layer: a dependency-free metrics
// registry with Prometheus text exposition (served by dtad at
// GET /metrics) and the two exporters of an observed run (Run): a
// Chrome trace-event writer that turns a trace.Recorder's
// per-component spans into a Perfetto-loadable timeline, and a pprof
// writer for its guest cycle profile. See OBSERVABILITY.md.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one Prometheus label pair, rendered at registration time so
// the hot path never formats strings.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing metric. All methods are atomic
// and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observe is atomic and
// allocation-free: a linear scan over a handful of bounds, three
// atomic ops.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// DefBuckets are the default latency bounds in seconds.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// series is one exposition row: pre-rendered labels plus a value source.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry holds metric families in registration order. Registration
// takes a lock and allocates; reads and writes of registered metrics do
// not.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.series = append(f.series, s)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", &series{labels: renderLabels(labels), c: c})
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", &series{labels: renderLabels(labels), g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "gauge", &series{labels: renderLabels(labels), fn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time
// (for counters owned elsewhere, e.g. package-level atomics).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "counter", &series{labels: renderLabels(labels), fn: fn})
}

// Histogram registers and returns a histogram with the given ascending
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
	r.add(name, help, "histogram", &series{labels: renderLabels(labels), h: h})
	return h
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// mergeLabel renders labels plus one extra pair (for histogram le=).
func mergeLabel(labels, name, value string) string {
	extra := fmt.Sprintf("%s=%q", name, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus writes the registry in Prometheus text exposition
// format v0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.fn != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.h != nil:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabel(s.labels, "le", formatFloat(b)), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabel(s.labels, "le", "+Inf"), s.h.Count())
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
			}
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
