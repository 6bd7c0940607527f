package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/noc"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Run is one observed machine run to export: its timeline (Rec, nil
// unless cell.Config.Record) for WriteTrace and its guest profile
// (Prof, the machine's cell.Machine.Profile) with the program that
// symbolizes it for WriteProfile. Multiple runs (e.g. the original and
// the prefetch-transformed variant of a fuzz reproducer) render as
// separate process groups in one timeline and separate root frames in
// one profile.
type Run struct {
	Label string
	SPEs  int
	Prog  *program.Program
	Rec   *trace.Recorder
	Prof  *stats.Profile
}

// DroppedSpans sums the spans and events the runs' recorders dropped at
// the per-track cap (trace.DefaultSpanCap): a timeline with any is
// truncated.
func DroppedSpans(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Rec.DroppedSpans()
	}
	return n
}

// Track layout inside each trace: one "machine" process per run
// carrying the NoC message spans, then one process per SPE with
// synchronous SPU tracks (work units, burst windows) and async tracks
// for overlapping DMA commands and thread-lifecycle states.
const (
	tidSPU     = 1
	tidBurst   = 2
	tidDMA     = 3
	tidThreads = 4
)

// event is one Chrome trace-event JSON object. 1 simulated cycle maps
// to 1 µs of trace time (ts/dur are in µs).
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceWriter struct {
	w     *bufio.Writer
	enc   *json.Encoder
	first bool
	err   error
}

func (t *traceWriter) emit(e event) {
	if t.err != nil {
		return
	}
	if !t.first {
		if _, t.err = t.w.WriteString(",\n"); t.err != nil {
			return
		}
	}
	t.first = false
	t.err = t.enc.Encode(e)
}

// WriteTrace emits the runs' timelines as Chrome trace-event JSON
// ("JSON object format": {"traceEvents": [...]}), loadable in Perfetto
// or chrome://tracing. A truncated timeline says so: when the recorders
// dropped spans, the document carries "otherData": {"dropped_spans": N}.
func WriteTrace(w io.Writer, runs []Run) error {
	bw := bufio.NewWriter(w)
	tw := &traceWriter{w: bw, enc: json.NewEncoder(bw), first: true}
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	pidBase := 1
	for _, run := range runs {
		writeRun(tw, pidBase, run)
		pidBase += run.SPEs + 1
	}
	if tw.err != nil {
		return tw.err
	}
	tail := "],\"displayTimeUnit\":\"ms\"}\n"
	if n := DroppedSpans(runs); n > 0 {
		tail = fmt.Sprintf("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%d}}\n", n)
	}
	if _, err := bw.WriteString(tail); err != nil {
		return err
	}
	return bw.Flush()
}

func meta(pid, tid int, kind, name string) event {
	return event{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

func writeRun(tw *traceWriter, pidBase int, run Run) {
	label := run.Label
	if label == "" {
		label = "run"
	}
	machinePid := pidBase
	spePid := func(spe int) int { return pidBase + 1 + spe }

	tw.emit(meta(machinePid, 0, "process_name", "machine "+label))
	tw.emit(meta(machinePid, 1, "thread_name", "NoC"))
	for spe := 0; spe < run.SPEs; spe++ {
		pid := spePid(spe)
		tw.emit(meta(pid, 0, "process_name", fmt.Sprintf("SPE %d — %s", spe, label)))
		tw.emit(meta(pid, tidSPU, "thread_name", "SPU"))
		tw.emit(meta(pid, tidBurst, "thread_name", "SPU bursts"))
		tw.emit(meta(pid, tidDMA, "thread_name", "MFC DMA"))
		tw.emit(meta(pid, tidThreads, "thread_name", "threads"))
	}

	ids := 0
	nextID := func() string { ids++; return fmt.Sprintf("0x%x", ids) }

	// SPU occupancy: work units and burst windows are sequential per
	// SPE, so plain synchronous X events stack cleanly.
	for _, s := range run.Rec.SPUSpans() {
		if s.SPE >= run.SPEs {
			continue
		}
		dur := int64(s.End - s.Start)
		if dur < 1 {
			dur = 1
		}
		switch s.Unit {
		case trace.UnitBurst:
			tw.emit(event{Name: "burst", Ph: "X", Ts: int64(s.Start), Dur: dur,
				Pid: spePid(s.SPE), Tid: tidBurst, Cat: "spu"})
		default:
			name := fmt.Sprintf("tmpl%d", s.Template)
			if s.Unit == trace.UnitPF {
				name = "pf " + name
			}
			tw.emit(event{Name: name, Ph: "X", Ts: int64(s.Start), Dur: dur,
				Pid: spePid(s.SPE), Tid: tidSPU, Cat: "spu",
				Args: map[string]any{"thread": s.Thread, "unit": s.Unit.String()}})
		}
	}

	// DMA command lifetimes overlap (the MFC queue holds many commands),
	// so each command is a nestable async pair: issue→complete outer,
	// launch→complete "xfer" inner.
	for _, d := range run.Rec.DMASpans() {
		if d.SPE >= run.SPEs {
			continue
		}
		pid, id := spePid(d.SPE), nextID()
		dir := "get"
		if d.Dir != 0 {
			dir = "put"
		}
		name := fmt.Sprintf("%s %dB tag%d", dir, d.Size, d.Tag)
		tw.emit(event{Name: name, Ph: "b", Ts: int64(d.Issued), Pid: pid, Tid: tidDMA,
			Cat: "dma", ID: id,
			Args: map[string]any{"launched": int64(d.Launched), "size": d.Size, "tag": d.Tag, "dir": dir}})
		if d.Launched > d.Issued {
			tw.emit(event{Name: "xfer", Ph: "b", Ts: int64(d.Launched), Pid: pid, Tid: tidDMA, Cat: "dma", ID: id})
			tw.emit(event{Name: "xfer", Ph: "e", Ts: int64(d.Done), Pid: pid, Tid: tidDMA, Cat: "dma", ID: id})
		}
		tw.emit(event{Name: name, Ph: "e", Ts: int64(d.Done), Pid: pid, Tid: tidDMA, Cat: "dma", ID: id})
	}

	// NoC transits on the machine process; async so in-flight messages
	// on the same link can overlap.
	for _, m := range run.Rec.NoCSpans() {
		id := nextID()
		name := noc.Kind(m.Kind).String()
		args := map[string]any{"src": m.Src, "dst": m.Dst, "bytes": m.Bytes}
		tw.emit(event{Name: name, Ph: "b", Ts: int64(m.Sent), Pid: machinePid, Tid: 1, Cat: "noc", ID: id, Args: args})
		tw.emit(event{Name: name, Ph: "e", Ts: int64(m.Delivered), Pid: machinePid, Tid: 1, Cat: "noc", ID: id})
	}

	writeThreadStates(tw, spePid, run)
}

// writeThreadStates turns the flat lifecycle event stream into
// per-thread state spans: each event opens the state it names, closed
// by the thread's next event. Every thread gets its own async series so
// concurrent threads on one SPE do not fight over a track.
func writeThreadStates(tw *traceWriter, spePid func(int) int, run Run) {
	events := run.Rec.ThreadEvents()
	if len(events) == 0 {
		return
	}
	type threadKey struct {
		spe    int
		thread int64
	}
	byThread := make(map[threadKey][]trace.Event)
	var order []threadKey
	for _, e := range events {
		if e.SPE >= run.SPEs {
			continue
		}
		k := threadKey{e.SPE, e.Thread}
		if _, ok := byThread[k]; !ok {
			order = append(order, k)
		}
		byThread[k] = append(byThread[k], e)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].spe != order[j].spe {
			return order[i].spe < order[j].spe
		}
		return order[i].thread < order[j].thread
	})
	for _, k := range order {
		evs := byThread[k]
		id := fmt.Sprintf("t%d.%d", k.spe, k.thread)
		name := fmt.Sprintf("thread %d", k.thread)
		pid := spePid(k.spe)
		tw.emit(event{Name: name, Ph: "b", Ts: int64(evs[0].At), Pid: pid, Tid: tidThreads,
			Cat: "thread", ID: id, Args: map[string]any{"template": evs[0].Template}})
		for i, e := range evs {
			end := e.At
			if i+1 < len(evs) {
				end = evs[i+1].At
			}
			if end == e.At {
				end++ // zero-length states still render
			}
			// Same id as the enclosing thread span: nestable async pairs
			// with one id render the states as slices inside the thread row.
			tw.emit(event{Name: e.Kind.String(), Ph: "b", Ts: int64(e.At), Pid: pid, Tid: tidThreads, Cat: "thread", ID: id})
			tw.emit(event{Name: e.Kind.String(), Ph: "e", Ts: int64(end), Pid: pid, Tid: tidThreads, Cat: "thread", ID: id})
		}
		last := evs[len(evs)-1]
		endAt := last.At
		if endAt == evs[0].At {
			endAt++
		}
		tw.emit(event{Name: name, Ph: "e", Ts: int64(endAt), Pid: pid, Tid: tidThreads, Cat: "thread", ID: id})
	}
}
