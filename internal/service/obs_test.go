package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	statspkg "repro/internal/stats"
)

// TestMetricsEndpoint scrapes /metrics after one simulated and one
// cache-served run and checks the Prometheus exposition carries the key
// families with the right values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// mmul-pf runs a real simulation (table-style experiments only print
	// configuration), so sim-cycle accounting has something to count.
	req := `{"experiment":"mmul-pf","options":{"quick":true,"spes":2,"latency":60}}`
	readAll(t, postJSON(t, ts.URL+"/v1/runs", req))
	readAll(t, postJSON(t, ts.URL+"/v1/runs", req)) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE dtad_simulations_total counter",
		"dtad_simulations_total 1",
		"dtad_cache_hits_total 1",
		"dtad_cache_misses_total 1",
		"# TYPE dtad_sim_cycles_total counter",
		"# TYPE dtad_sim_stall_cycles_total counter",
		`cause="blocking_read"`,
		`cause="dma_program"`,
		"# TYPE dtad_uptime_seconds gauge",
		"dtad_queue_depth 0",
		`dtad_jobs{state="done"} 2`,
		"# TYPE dtad_http_request_seconds histogram",
		`dtad_http_requests_total{path="POST /v1/runs"} 2`,
		`dtad_http_request_seconds_bucket{path="POST /v1/runs",le="+Inf"} 2`,
		"# TYPE dtad_pool_gets_total counter",
		"# TYPE dtad_harness_runs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// sim cycles must be positive after a real simulation.
	if strings.Contains(body, "dtad_sim_cycles_total 0\n") {
		t.Fatalf("sim cycles not accumulated:\n%s", body)
	}
}

// TestStatsEnriched checks the satellite /v1/stats fields: uptime,
// cumulative sim cycles and the derived cache hit ratio.
func TestStatsEnriched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"experiment":"mmul-pf","options":{"quick":true,"spes":2,"latency":60}}`
	readAll(t, postJSON(t, ts.URL+"/v1/runs", req))
	readAll(t, postJSON(t, ts.URL+"/v1/runs", req))

	var stats StatsDoc
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SimCycles <= 0 {
		t.Fatalf("sim_cycles = %d, want > 0", stats.SimCycles)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", stats.UptimeSeconds)
	}
	if stats.CacheHitRatio != 0.5 {
		t.Fatalf("cache_hit_ratio = %v, want 0.5 (1 hit, 1 miss)", stats.CacheHitRatio)
	}
	if stats.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1", stats.Simulations)
	}
	// Per-cause cycle totals: every cause slug present, and the executed
	// simulation must have charged at least the issue cause (counters are
	// process-wide, so assert presence and floor rather than exact values).
	if len(stats.StallCycles) != int(statspkg.NumCauses) {
		t.Fatalf("stall_cycles has %d entries, want %d: %v",
			len(stats.StallCycles), statspkg.NumCauses, stats.StallCycles)
	}
	if stats.StallCycles["issue"] <= 0 {
		t.Fatalf("stall_cycles[issue] = %d, want > 0", stats.StallCycles["issue"])
	}
}

// TestProfileRunEndpoint exercises POST /v1/runs?profile=1: the
// response is a gzipped pprof protobuf of the guest profile, the run
// bypasses the cache, and the simulations counter stays untouched.
func TestProfileRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"experiment":"mmul-pf","options":{"quick":true,"spes":2,"latency":60}}`
	resp := postJSON(t, ts.URL+"/v1/runs?profile=1", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile run: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("profile body is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	// The string table carries the symbolised names, so the simulated
	// program and the sample-type slugs must appear in the raw protobuf.
	for _, want := range []string{"cycles", "blocking_read", "mmul"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("profile missing %q", want)
		}
	}
	if n := s.Simulations(); n != 0 {
		t.Fatalf("profile run bumped the simulations counter to %d", n)
	}
	if cs := s.Cache().Stats(); cs.Len != 0 {
		t.Fatalf("profile run populated the result cache (%d entries)", cs.Len)
	}

	bad := postJSON(t, ts.URL+"/v1/runs?profile=1", `{"experiment":"nope"}`)
	badBody := readAll(t, bad)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad profile run: %d %s", bad.StatusCode, badBody)
	}
}

// TestTraceRunEndpoint exercises POST /v1/runs?trace=1: the response is
// a Chrome trace-event document, the run bypasses the cache, and the
// simulations counter stays untouched.
func TestTraceRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"experiment":"mmul-pf","options":{"quick":true,"spes":2,"latency":60}}`
	resp := postJSON(t, ts.URL+"/v1/runs?trace=1", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace run: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace body is not valid trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	sawSPU, sawDMA := false, false
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			switch e.Args["name"] {
			case "SPU":
				sawSPU = true
			case "MFC DMA":
				sawDMA = true
			}
		}
	}
	if !sawSPU || !sawDMA {
		t.Fatalf("trace lacks SPU/DMA tracks (spu=%v dma=%v)", sawSPU, sawDMA)
	}
	if n := s.Simulations(); n != 0 {
		t.Fatalf("trace run bumped the simulations counter to %d", n)
	}
	if cs := s.Cache().Stats(); cs.Len != 0 {
		t.Fatalf("trace run populated the result cache (%d entries)", cs.Len)
	}

	// Unknown experiments are rejected the same way as the normal path.
	bad := postJSON(t, ts.URL+"/v1/runs?trace=1", `{"experiment":"nope"}`)
	badBody := readAll(t, bad)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace run: %d %s", bad.StatusCode, badBody)
	}

	// The response is one document: asking for both is refused, not
	// answered with the timeline alone.
	both := postJSON(t, ts.URL+"/v1/runs?trace=1&profile=1", req)
	bothBody := readAll(t, both)
	if both.StatusCode != http.StatusBadRequest || !strings.Contains(string(bothBody), "exclusive") {
		t.Fatalf("trace and profile run: %d %s, want 400", both.StatusCode, bothBody)
	}
	if n := s.Simulations(); n != 0 {
		t.Fatalf("refused run bumped the simulations counter to %d", n)
	}
}

// TestMetricsRouteLabelsStable: repeated Handler calls must not
// duplicate the pre-registered per-route series.
func TestMetricsRouteLabelsStable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_ = s.Handler() // a second handler over the same service
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if n := bytes.Count(body, []byte(`dtad_http_requests_total{path="GET /metrics"}`)); n != 1 {
		t.Fatalf("GET /metrics series appears %d times", n)
	}
}
