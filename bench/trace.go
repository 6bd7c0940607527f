package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans stay in
// memory until the run ends (writing during the run would perturb it).
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int32         // index of the span that caused this one, -1 for a root
	id         int64         // pass number or request index, shared by one pass/request
	lane       int32         // 0, or the client number for concurrent spans
}

// tracer records spans. A nil *tracer is the untraced run: every method
// is a no-op, so call sites do not branch on whether tracing is on.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[idx].end = now
	t.mu.Unlock()
}

// add records a span whose name is only known once it is over (a request
// is a hit or a miss only after the reply).
func (t *tracer) add(name string, parent int32, id int64, lane int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: s, end: s + d, parent: parent, id: id, lane: int32(lane)})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int32, id int64, fn func()) {
	idx := t.begin(name, parent, id)
	fn()
	t.end(idx)
}

// medianOf is the median duration, in unit (time.Microsecond,
// time.Millisecond, ...), of the closed spans whose name starts with
// prefix: "cell.run" covers "cell.run.mmul-orig@8" and its siblings. 0
// when there are none.
func (t *tracer) medianOf(prefix string, unit time.Duration) float64 {
	if t == nil {
		return 0
	}
	var v []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) && s.end >= 0 {
			v = append(v, float64(s.end-s.start)/float64(unit))
		}
	}
	return median(v)
}

// spanTotals is one row of the self-time table.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the total duration and the self time:
// a span's duration minus the part of it its direct children cover.
// Children of concurrent lanes may overlap each other, so the covered
// part is clamped to the span's own duration.
func (t *tracer) selfTimes() []spanTotals {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		row := byName[s.name]
		if row == nil {
			row = &spanTotals{Name: s.name}
			byName[s.name] = row
		}
		row.Count++
		row.TotalMS += float64(d) / float64(time.Millisecond)
		row.SelfMS += float64(d-min(child[i], d)) / float64(time.Millisecond)
	}
	out := make([]spanTotals, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeChrome writes the spans as a Chrome trace-event document
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int32            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int64{"span": int64(i), "parent": int64(s.parent), "id": s.id},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
