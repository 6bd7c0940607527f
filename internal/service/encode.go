package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/stats"
)

// OptionsDoc is the wire form of harness.Options, used both for request
// decoding and inside result documents. Field names are part of the API.
type OptionsDoc struct {
	SPEs    int    `json:"spes"`
	Latency int    `json:"latency"`
	Quick   bool   `json:"quick"`
	Seed    uint64 `json:"seed"`
}

// Harness converts the wire form back to harness.Options.
func (d OptionsDoc) Harness() harness.Options {
	return harness.Options{SPEs: d.SPEs, Latency: d.Latency, Quick: d.Quick, Seed: d.Seed}
}

// optionsDoc renders the canonical (defaults-applied) wire form.
func optionsDoc(opt harness.Options) OptionsDoc {
	opt = opt.WithDefaults()
	return OptionsDoc{SPEs: opt.SPEs, Latency: opt.Latency, Quick: opt.Quick, Seed: opt.Seed}
}

// ResultDoc is the content-addressed result document: the value stored
// in the cache and the body served for a completed run. It carries no
// timestamps, job ids or other per-submission state, so identical runs
// encode to identical bytes — the property the cache-hit acceptance
// check and the golden tests pin down. Metrics rely on encoding/json's
// sorted map keys for determinism.
type ResultDoc struct {
	Key        string             `json:"key"`
	Engine     string             `json:"engine"`
	Experiment string             `json:"experiment"`
	Options    OptionsDoc         `json:"options"`
	Tables     []*stats.Table     `json:"tables,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// EncodeResult renders the canonical result document for one completed
// experiment run.
func EncodeResult(experimentID string, opt harness.Options, out *harness.Outcome) ([]byte, error) {
	if out == nil {
		return nil, fmt.Errorf("encode %s: nil outcome", experimentID)
	}
	doc := ResultDoc{
		Key:        RunKey(experimentID, opt),
		Engine:     EngineVersion,
		Experiment: experimentID,
		Options:    optionsDoc(opt),
		Tables:     out.Tables,
		Notes:      out.Notes,
		Metrics:    out.Metrics,
	}
	return json.Marshal(doc)
}

// RunLine is one NDJSON event: a completed (or failed) experiment with
// its timing. It is emitted by `dta exp -json` and by the dtad
// sweep stream, so batch and served paths produce the same shape.
type RunLine struct {
	Experiment string             `json:"experiment"`
	Key        string             `json:"key"`
	ElapsedMS  int64              `json:"elapsed_ms"`
	Error      string             `json:"error,omitempty"`
	Tables     []*stats.Table     `json:"tables,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// EncodeRunResult renders one harness.RunResult as an NDJSON line
// (without the trailing newline).
func EncodeRunResult(opt harness.Options, r harness.RunResult) ([]byte, error) {
	line := RunLine{
		Experiment: r.Experiment.ID,
		Key:        RunKey(r.Experiment.ID, opt),
		ElapsedMS:  r.Elapsed.Milliseconds(),
	}
	if r.Err != nil {
		line.Error = r.Err.Error()
	} else if r.Outcome != nil {
		line.Tables = r.Outcome.Tables
		line.Notes = r.Outcome.Notes
		line.Metrics = r.Outcome.Metrics
	}
	return json.Marshal(line)
}
