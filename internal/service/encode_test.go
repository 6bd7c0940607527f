package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// fixedOutcome builds a deterministic outcome for golden tests.
func fixedOutcome() *harness.Outcome {
	tbl := &stats.Table{
		Title:   "golden table",
		Headers: []string{"benchmark", "cycles"},
	}
	tbl.AddRow("mmul(32)", "12345")
	tbl.AddRow("zoom(16)", "678")
	return &harness.Outcome{
		Tables: []*stats.Table{tbl},
		Notes:  []string{"a note"},
		// Two keys deliberately out of insertion order: encoding/json
		// sorts map keys, which is what makes the document deterministic.
		Metrics: map[string]float64{"zeta": 2.5, "alpha": 1},
	}
}

// TestEncodeResultGolden pins the exact wire bytes of a result
// document. If this breaks, the cached-result format changed: decide
// whether that is intended, and if so update the golden AND bump
// EngineVersion so stale cache entries cannot be served.
func TestEncodeResultGolden(t *testing.T) {
	opt := harness.Options{Quick: true} // normalises to 8/150/quick/42
	got, err := EncodeResult("goldexp", opt, fixedOutcome())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"key":"` + RunKey("goldexp", opt) + `","engine":"` + EngineVersion + `",` +
		`"experiment":"goldexp","options":{"spes":8,"latency":150,"quick":true,"seed":42},` +
		`"tables":[{"title":"golden table","headers":["benchmark","cycles"],` +
		`"rows":[["mmul(32)","12345"],["zoom(16)","678"]]}],` +
		`"notes":["a note"],"metrics":{"alpha":1,"zeta":2.5}}`
	if string(got) != want {
		t.Fatalf("result document changed:\n got  %s\n want %s", got, want)
	}
}

// TestEncodeResultDeterministic: repeated encodes are byte-identical —
// the property that makes the documents content-addressable.
func TestEncodeResultDeterministic(t *testing.T) {
	opt := harness.Options{Quick: true}
	a, err := EncodeResult("goldexp", opt, fixedOutcome())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult("goldexp", opt, fixedOutcome())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("encodes diverge:\n%s\n%s", a, b)
	}
}

func TestEncodeResultNilOutcome(t *testing.T) {
	if _, err := EncodeResult("x", harness.Options{}, nil); err == nil {
		t.Fatal("nil outcome encoded without error")
	}
}

// TestEncodeRunResultGolden pins the NDJSON line shape shared by
// `dta exp -json` and the dtad sweep stream.
func TestEncodeRunResultGolden(t *testing.T) {
	opt := harness.Options{Quick: true}
	exp := &harness.Experiment{ID: "goldexp"}
	line, err := EncodeRunResult(opt, harness.RunResult{
		Experiment: exp,
		Outcome:    fixedOutcome(),
		Elapsed:    1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"experiment":"goldexp","key":"` + RunKey("goldexp", opt) + `","elapsed_ms":1500,` +
		`"tables":[{"title":"golden table","headers":["benchmark","cycles"],` +
		`"rows":[["mmul(32)","12345"],["zoom(16)","678"]]}],` +
		`"notes":["a note"],"metrics":{"alpha":1,"zeta":2.5}}`
	if string(line) != want {
		t.Fatalf("run line changed:\n got  %s\n want %s", line, want)
	}
}

func TestEncodeRunResultError(t *testing.T) {
	exp := &harness.Experiment{ID: "bad"}
	line, err := EncodeRunResult(harness.Options{}, harness.RunResult{
		Experiment: exp,
		Err:        errors.New("kaboom"),
		Elapsed:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var decoded RunLine
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	if decoded.Error != "kaboom" || decoded.Experiment != "bad" || decoded.ElapsedMS != 2 {
		t.Fatalf("error line = %+v", decoded)
	}
	if len(decoded.Tables) != 0 || decoded.Metrics != nil {
		t.Fatalf("error line carries result payload: %s", line)
	}
}

// TestEncodeRealExperiment runs a real (cheap) experiment through the
// encoder and round-trips it, tying the wire format to live outcomes.
func TestEncodeRealExperiment(t *testing.T) {
	exp, ok := harness.ByID("table2")
	if !ok {
		t.Fatal("table2 missing")
	}
	opt := harness.Options{Quick: true}
	res := harness.RunOn(harness.NewContext(opt), exp)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	data, err := EncodeResult("table2", opt, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	var doc ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Key != RunKey("table2", opt) || doc.Engine != EngineVersion {
		t.Fatalf("doc header wrong: %+v", doc)
	}
	if doc.Metrics["mem_latency"] != 150 {
		t.Fatalf("metrics lost in encoding: %v", doc.Metrics)
	}
	if len(doc.Tables) != 1 || doc.Tables[0].Title == "" {
		t.Fatalf("tables lost in encoding: %s", data)
	}
	// The rendered table must survive the round trip, so served results
	// can be re-rendered client-side exactly as the CLI prints them.
	var orig, roundtrip bytes.Buffer
	res.Outcome.Tables[0].Render(&orig)
	doc.Tables[0].Render(&roundtrip)
	if orig.String() != roundtrip.String() {
		t.Fatalf("table render diverges after round trip:\n%s\nvs\n%s", orig.String(), roundtrip.String())
	}
}
