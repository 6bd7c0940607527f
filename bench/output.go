package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// print writes the run for a reader and, as the last line, the one JSON
// object a driver parses.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  %d timed passes  %d timed operations\n", r.Workload, r.Seed, mode, r.Passes, r.Ops)
	fmt.Fprintf(w, "  operations attempted %d  failed %d\n", r.Attempted, r.Failed)
	fmt.Fprintf(w, "  model_digest %s\n", r.ModelDigest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}

	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		v := r.Metrics[m.name]
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("  median of %d cold processes %.4v", len(r.SetupRuns), r.SetupRuns)
		case "wall_s":
			_, q3 := quartiles(r.WallS)
			note = fmt.Sprintf("  first quartile of %d passes; median %.4f, third quartile %.4f; median as measured %.4f", len(r.WallS), median(r.WallS), q3, median(r.RawWallS))
		case "host.op_p90_ms":
			note = fmt.Sprintf("  %d operations; the highest percentile with 10 samples beyond it is p%g", r.Ops, highestPercentile(r.Ops))
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", m.name, v.Value, v.Unit, note)
	}
	extra := make([]string, 0, len(r.Extra))
	for name := range r.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-34s %14.6g\n", name, r.Extra[name])
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  spans (self = total minus the part child spans cover):\n")
		fmt.Fprintf(w, "    %-34s %8s %12s %12s\n", "name", "count", "total ms", "self ms")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "    %-34s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}

	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(w, "%s\n", last)
}

// appendTo appends the run as one JSON line to the file at path: a
// history that is added to, never overwritten.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
