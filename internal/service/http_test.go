package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		Experiments []struct{ ID, Title, Paper string } `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, e := range doc.Experiments {
		ids[e.ID] = true
	}
	for _, want := range []string{"table2", "fig5a", "fig7", "lat1"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from listing: %s", want, body)
		}
	}
}

// TestRunSubmitTwiceIdenticalBodies is the end-to-end acceptance check:
// the same quick experiment POSTed twice returns byte-identical JSON,
// the second from cache with no second simulation.
func TestRunSubmitTwiceIdenticalBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"experiment":"table2","options":{"quick":true}}`

	first := postJSON(t, ts.URL+"/v1/runs", req)
	firstBody := readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", first.StatusCode, firstBody)
	}
	if got := first.Header.Get("X-Dtad-Cache"); got != "miss" {
		t.Fatalf("first run cache header = %q, want miss", got)
	}

	second := postJSON(t, ts.URL+"/v1/runs", req)
	secondBody := readAll(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", second.StatusCode, secondBody)
	}
	if got := second.Header.Get("X-Dtad-Cache"); got != "hit" {
		t.Fatalf("second run cache header = %q, want hit", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("bodies differ:\n%s\n%s", firstBody, secondBody)
	}
	if n := s.Simulations(); n != 1 {
		t.Fatalf("ran %d simulations, want 1", n)
	}

	// The stats endpoint exposes the hit counter.
	var stats StatsDoc
	if err := json.Unmarshal(readAll(t, postGet(t, ts.URL+"/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits < 1 || stats.Simulations != 1 {
		t.Fatalf("stats = %+v, want >=1 cache hit and 1 simulation", stats)
	}

	// And the document is directly addressable by its key.
	var doc ResultDoc
	if err := json.Unmarshal(firstBody, &doc); err != nil {
		t.Fatal(err)
	}
	byKey := postGet(t, ts.URL+"/v1/results/"+doc.Key)
	if byKey.StatusCode != http.StatusOK {
		t.Fatalf("result by key: %d", byKey.StatusCode)
	}
	if !bytes.Equal(readAll(t, byKey), firstBody) {
		t.Fatal("result-by-key bytes differ from run response")
	}
}

func postGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRunAsyncPoll covers wait:false -> 202 -> poll to completion.
func TestRunAsyncPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/runs", `{"experiment":"table3","options":{"quick":true},"wait":false}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var job JobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Job == "" {
		t.Fatalf("no job id in %s", body)
	}
	for i := 0; i < 200; i++ {
		poll := postGet(t, ts.URL+"/v1/runs/"+job.Job)
		if err := json.Unmarshal(readAll(t, poll), &job); err != nil {
			t.Fatal(err)
		}
		if job.State.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != JobDone || len(job.Result) == 0 {
		t.Fatalf("polled job = %+v", job)
	}
}

func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{"experiment":"no-such-experiment"}`, http.StatusBadRequest},
		{`{"options":{"quick":true}}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/runs", c.body)
		readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Fatalf("body %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	if resp := postGet(t, ts.URL+"/v1/runs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
	if resp := postGet(t, ts.URL+"/v1/results/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
}

// TestSPEsBounded: a run asking for more SPEs than cell.MaxSPEs, for a
// negative count or for a negative memory latency is answered 400 in the
// JSON error shape before it is keyed or queued — on the queued path,
// the synchronous trace and profile paths and sweeps — while 0 (the
// default: 8 SPEs, latency 150), MaxSPEs itself and latency 1 run.
func TestSPEsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	jobs := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}
	for _, tc := range []struct {
		option string
		value  int
		want   int
	}{
		{"spes", 0, http.StatusOK}, {"spes", 64, http.StatusOK}, {"spes", 65, http.StatusBadRequest},
		{"spes", 100000, http.StatusBadRequest}, {"spes", -1, http.StatusBadRequest},
		{"latency", 0, http.StatusOK}, {"latency", 1, http.StatusOK},
		{"latency", -1, http.StatusBadRequest}, {"latency", -5, http.StatusBadRequest},
	} {
		opts := fmt.Sprintf(`{"quick":true,%q:%d}`, tc.option, tc.value)
		run := `{"experiment":"mmul-orig","options":` + opts + `}`
		bodies := map[string]string{"/v1/runs": run}
		if tc.want != http.StatusOK {
			bodies["/v1/runs?trace=1"] = run
			bodies["/v1/runs?profile=1"] = run
			bodies["/v1/sweeps"] = `{"experiments":["mmul-orig"],"options":` + opts + `}`
		}
		for path, body := range bodies {
			before := jobs()
			resp := postJSON(t, ts.URL+path, body)
			data := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s %d: status %d, want %d: %s", path, tc.option, tc.value, resp.StatusCode, tc.want, data)
			}
			if tc.want == http.StatusOK {
				continue
			}
			var doc map[string]string
			if err := json.Unmarshal(data, &doc); err != nil || !strings.Contains(doc["error"], tc.option) {
				t.Fatalf("%s %s %d: 400 body %q does not name %s in the JSON error shape (%v)", path, tc.option, tc.value, data, tc.option, err)
			}
			if n := jobs(); n != before {
				t.Fatalf("%s %s %d: a refused request created %d jobs", path, tc.option, tc.value, n-before)
			}
		}
	}
}

// TestOversizedBodyRefused: both endpoints that read a body stop at
// maxBodyBytes and answer 413 in the JSON error shape, whether the excess
// is inside the JSON value or the value never ends.
func TestOversizedBodyRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pad := strings.Repeat("x", maxBodyBytes)
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		for _, body := range []string{
			`{"experiment":"fig7","experiments":["fig7"],"options":{"quick":true},"pad":"` + pad + `"}`,
			`{"pad":"` + pad + pad,
		} {
			resp := postJSON(t, ts.URL+path, body)
			data := readAll(t, resp)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s with %d bytes: status %d, want 413", path, len(body), resp.StatusCode)
			}
			var doc map[string]string
			if err := json.Unmarshal(data, &doc); err != nil || doc["error"] == "" {
				t.Fatalf("%s: 413 body %q is not the JSON error shape (%v)", path, data, err)
			}
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("%d jobs were submitted from refused bodies", jobs)
	}
	// A body just under the limit still decodes (unknown fields are ignored).
	resp := postJSON(t, ts.URL+"/v1/runs", `{"experiment":"no-such-experiment","pad":"`+pad[:maxBodyBytes-100]+`"}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body under the limit: status %d, want 400 for the unknown experiment", resp.StatusCode)
	}
}

// TestSweepStream submits a sweep of cheap experiments and reads the
// NDJSON stream: one line per experiment, in submission order, each a
// valid RunLine.
func TestSweepStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"experiments":["table2","table3","table4"],"options":{"quick":true}}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %s", resp.StatusCode, body)
	}
	var sweep SweepDoc
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Total != 3 {
		t.Fatalf("sweep = %+v", sweep)
	}

	stream := postGet(t, ts.URL+"/v1/sweeps/"+sweep.Sweep+"/stream")
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var got []string
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line RunLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("experiment %s failed: %s", line.Experiment, line.Error)
		}
		got = append(got, line.Experiment)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"table2", "table3", "table4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream order = %v, want %v", got, want)
	}

	// Poll endpoint agrees once everything is done.
	var polled SweepDoc
	if err := json.Unmarshal(readAll(t, postGet(t, ts.URL+"/v1/sweeps/"+sweep.Sweep)), &polled); err != nil {
		t.Fatal(err)
	}
	if polled.Done != 3 {
		t.Fatalf("sweep poll = %+v", polled)
	}
}

// TestSweepAllAndCancel submits the whole registry ("all": true) on one
// worker, then cancels everything still queued over the DELETE
// endpoint. This exercises the expansion, the cancel path, and keeps
// the drain fast — only the handful of jobs the worker already picked
// up actually simulate.
func TestSweepAllAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"all":true,"options":{"quick":true}}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep all: %d %s", resp.StatusCode, body)
	}
	var sweep SweepDoc
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Total < 10 {
		t.Fatalf("all-sweep only %d jobs", sweep.Total)
	}

	canceled := 0
	for _, jd := range sweep.Jobs {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+jd.Job, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		switch resp.StatusCode {
		case http.StatusOK:
			canceled++
		case http.StatusConflict: // already running or done — fine
		default:
			t.Fatalf("cancel %s: %d", jd.Job, resp.StatusCode)
		}
	}
	if canceled == 0 {
		// The whole registry can legitimately drain before the cancel
		// loop starts (quick mode on a fast machine); only complain when
		// jobs were still cancelable and none canceled.
		var polled SweepDoc
		if err := json.Unmarshal(readAll(t, postGet(t, ts.URL+"/v1/sweeps/"+sweep.Sweep)), &polled); err != nil {
			t.Fatal(err)
		}
		if polled.Done != polled.Total {
			t.Fatalf("no job canceled yet sweep not drained (%d/%d done)", polled.Done, polled.Total)
		}
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		var polled SweepDoc
		if err := json.Unmarshal(readAll(t, postGet(t, ts.URL+"/v1/sweeps/"+sweep.Sweep)), &polled); err != nil {
			t.Fatal(err)
		}
		if polled.Done == polled.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never drained: %d/%d done", polled.Done, polled.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
