package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// API routes (all JSON):
//
//	GET  /healthz                 liveness probe
//	GET  /v1/experiments          registered experiments (id, title, paper)
//	GET  /v1/stats                cache counters, queue depth, job states
//	POST /v1/runs                 submit one run; waits and returns the
//	                              content-addressed result document by
//	                              default ("wait": false returns 202 +
//	                              the job immediately)
//	GET  /v1/runs/{id}            poll a job
//	DELETE /v1/runs/{id}          cancel a queued job
//	GET  /v1/results/{key}        fetch a cached result document by run key
//	POST /v1/sweeps               submit a batch; returns 202 + the sweep
//	GET  /v1/sweeps/{id}          poll a sweep
//	GET  /v1/sweeps/{id}/stream   NDJSON: one RunLine per experiment as
//	                              each completes (submission order)
//
// Synchronous run responses set X-Dtad-Cache to "hit" or "miss"; the
// body is the cached document verbatim, so resubmitting an identical
// run returns byte-identical JSON.

// JobDoc is the API representation of a job.
type JobDoc struct {
	Job        string          `json:"job"`
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	State      JobState        `json:"state"`
	CacheHit   bool            `json:"cache_hit"`
	ElapsedMS  int64           `json:"elapsed_ms"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// SweepDoc is the API representation of a sweep.
type SweepDoc struct {
	Sweep string   `json:"sweep"`
	Total int      `json:"total"`
	Done  int      `json:"done"`
	Jobs  []JobDoc `json:"jobs"`
}

// StatsDoc is the /v1/stats payload.
type StatsDoc struct {
	Engine        string     `json:"engine"`
	Cache         CacheStats `json:"cache"`
	CacheHitRatio float64    `json:"cache_hit_ratio"`
	Simulations   int64      `json:"simulations"`
	SimCycles     int64      `json:"sim_cycles"`
	// StallCycles breaks sim_cycles down by stall cause (slug -> cycles;
	// process-wide, same accounting as sim_cycles). StallPct is the share
	// of those cycles in stall buckets (MemStall/LSStall/LSEStall).
	StallCycles map[string]int64 `json:"stall_cycles"`
	StallPct    float64          `json:"stall_pct"`
	// Checkpoint reports the warm-up-prefix snapshot caches
	// (process-wide, same scope as the dtad_checkpoint_* metrics).
	Checkpoint    CheckpointStats `json:"checkpoint"`
	Workers       int             `json:"workers"`
	QueueLen      int             `json:"queue_len"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Jobs          map[string]int  `json:"jobs"`
}

// CheckpointStats is the checkpoint-cache section of StatsDoc.
type CheckpointStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Bytes       int64 `json:"bytes"`
	CyclesSaved int64 `json:"cycles_saved"`
}

// runRequest is the POST /v1/runs body.
type runRequest struct {
	Experiment string     `json:"experiment"`
	Options    OptionsDoc `json:"options"`
	Wait       *bool      `json:"wait,omitempty"` // default true
}

// sweepRequest is the POST /v1/sweeps body.
type sweepRequest struct {
	Experiments []string   `json:"experiments"` // empty + All => every registered experiment
	All         bool       `json:"all,omitempty"`
	Options     OptionsDoc `json:"options"`
}

// routePatterns lists every registered mux pattern; per-route metric
// series are pre-registered against this list so the request path never
// touches the registry lock. Keep in sync with Handler.
var routePatterns = []string{
	"GET /healthz",
	"GET /metrics",
	"GET /v1/experiments",
	"GET /v1/stats",
	"POST /v1/runs",
	"GET /v1/runs/{id}",
	"DELETE /v1/runs/{id}",
	"GET /v1/results/{key}",
	"POST /v1/sweeps",
	"GET /v1/sweeps/{id}",
	"GET /v1/sweeps/{id}/stream",
}

// Handler returns the HTTP API for the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "engine": EngineVersion})
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStreamSweep)
	return s.instrument(mux)
}

// reqIDKey carries the middleware-assigned request id to handlers that
// want it in their own log lines.
type reqIDKey struct{}

// requestID returns the id the middleware assigned this request ("" if
// the handler runs outside the instrumented mux, as in direct tests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the request log line.
// It forwards Flush so NDJSON sweep streaming keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with per-route metrics (request counter +
// latency histogram, series pre-registered in buildRegistry) and one
// structured log line per request carrying a request id.
func (s *Service) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		m := s.httpMetrics[pattern]
		if m == nil {
			m = s.httpMetrics[""]
		}
		reqID := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, reqID)))
		elapsed := time.Since(t0)
		m.reqs.Inc()
		m.seconds.Observe(elapsed.Seconds())
		s.log.Info("request",
			"request_id", reqID, "method", r.Method, "path", r.URL.Path,
			"route", pattern, "status", sw.status, "elapsed_ms", elapsed.Milliseconds())
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a request body. The largest legitimate one — a
// sweep naming every experiment — is a few kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody reads a JSON request body of at most maxBodyBytes into v.
// On failure it has written the error response — 413 for an oversized
// body, 400 for a malformed one — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// jobDoc snapshots a job under the service lock.
func (s *Service) jobDoc(job *Job, includeResult bool) JobDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := JobDoc{
		Job:        job.ID,
		Experiment: job.Experiment,
		Key:        job.Key,
		State:      job.State,
		CacheHit:   job.CacheHit,
		Error:      job.Err,
	}
	if !job.Started.IsZero() && !job.Finished.IsZero() {
		doc.ElapsedMS = job.Finished.Sub(job.Started).Milliseconds()
	}
	if includeResult && job.State == JobDone {
		doc.Result = job.Result
	}
	return doc
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expDoc struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []expDoc
	for _, e := range s.list() {
		out = append(out, expDoc{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	byState := make(map[string]int)
	for _, j := range s.jobs {
		byState[string(j.State)]++
	}
	s.mu.Unlock()
	cs := s.cache.Stats()
	ratio := 0.0
	if total := cs.Hits + cs.Misses; total > 0 {
		ratio = float64(cs.Hits) / float64(total)
	}
	var causes stats.CauseBreakdown
	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		causes[c] = harness.CauseCycles[c].Load()
	}
	stallCycles := make(map[string]int64, stats.NumCauses)
	for c := stats.Cause(0); c < stats.NumCauses; c++ {
		stallCycles[c.Slug()] = causes[c]
	}
	ckpt := CheckpointStats{
		Hits:        harness.CheckpointHits.Load(),
		Misses:      harness.CheckpointMisses.Load(),
		Evictions:   harness.CheckpointEvictions.Load(),
		Bytes:       harness.CheckpointBytes.Load(),
		CyclesSaved: harness.CheckpointCyclesSaved.Load(),
	}
	writeJSON(w, http.StatusOK, StatsDoc{
		Engine:        EngineVersion,
		Cache:         cs,
		CacheHitRatio: ratio,
		Simulations:   s.Simulations(),
		SimCycles:     s.SimCycles(),
		StallCycles:   stallCycles,
		StallPct:      causes.Buckets().StallPct(),
		Checkpoint:    ckpt,
		Workers:       s.Workers(),
		QueueLen:      s.QueueLen(),
		UptimeSeconds: s.Uptime().Seconds(),
		Jobs:          byState,
	})
}

func (s *Service) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, "missing \"experiment\"")
		return
	}
	q := r.URL.Query()
	timeline, profile := q.Get("trace") == "1", q.Get("profile") == "1"
	if timeline && profile {
		writeError(w, http.StatusBadRequest, "?trace=1 and ?profile=1 are exclusive: the response is one document")
		return
	}
	if timeline || profile {
		s.handleObservedRun(w, r, req, timeline)
		return
	}
	job, err := s.Submit(req.Experiment, req.Options.Harness())
	if err != nil {
		status := http.StatusBadRequest
		// Overload conditions are retryable, a bad experiment id is not.
		if job != nil || errors.Is(err, ErrDraining) { // queue full or draining
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	s.log.Info("run submitted",
		"request_id", requestID(r), "job", job.ID, "key", job.Key, "experiment", job.Experiment)
	if req.Wait != nil && !*req.Wait {
		writeJSON(w, http.StatusAccepted, s.jobDoc(job, false))
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return
	}
	doc := s.jobDoc(job, true)
	switch doc.State {
	case JobDone:
	case JobCanceled:
		// Client-initiated, not a server fault.
		writeJSON(w, http.StatusConflict, doc)
		return
	default:
		writeJSON(w, http.StatusInternalServerError, doc)
		return
	}
	// Serve the content-addressed bytes verbatim: identical submissions
	// get byte-identical bodies whether simulated or cached.
	if doc.CacheHit {
		w.Header().Set("X-Dtad-Cache", "hit")
	} else {
		w.Header().Set("X-Dtad-Cache", "miss")
	}
	writeRaw(w, doc.Result)
}

// handleObservedRun serves POST /v1/runs?trace=1 (timeline set) and
// ?profile=1: the experiment runs synchronously on the request
// goroutine — a context with a pool of its own, which spreads nothing
// over the cores the workers occupy — observing its simulations, and
// the response is a Chrome trace-event document for Perfetto or a
// gzipped pprof protobuf of the guest profile (save it and inspect with
// `go tool pprof`), not a ResultDoc. The run bypasses the queue and the
// result cache — observing is a debugging path, its output is not
// content-addressed, and the simulations counter stays untouched so
// cache accounting matches the normal submission path. This profiles
// the simulated machine; dtad's -debug-addr serves the host process's
// own net/http/pprof.
func (s *Service) handleObservedRun(w http.ResponseWriter, r *http.Request, req runRequest, timeline bool) {
	what, contentType, write := "profile", "application/octet-stream", obs.WriteProfile
	if timeline {
		what, contentType, write = "trace", "application/json", obs.WriteTrace
	}
	exp, ok := s.lookup(req.Experiment)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown experiment %q", req.Experiment)
		return
	}
	opt := req.Options.Harness().WithDefaults()
	if err := checkOptions(opt); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := harness.NewContextWithPool(opt, cell.NewPool())
	ctx.Observe(timeline, !timeline)
	res := harness.RunOn(ctx, exp)
	if res.Err != nil {
		writeError(w, http.StatusInternalServerError, "%s run failed: %v", what, res.Err)
		return
	}
	runs := ctx.Observed()
	if len(runs) == 0 {
		writeError(w, http.StatusInternalServerError, "experiment %q observed no simulations", req.Experiment)
		return
	}
	s.log.Info(what+" run served",
		"request_id", requestID(r), "experiment", exp.ID, "runs", len(runs))
	w.Header().Set("Content-Type", contentType)
	if err := write(w, runs); err != nil {
		s.log.Error(what+" write failed", "request_id", requestID(r), "error", err.Error())
	}
}

// writeRaw serves a cached document plus trailing newline. The bytes
// are shared with the cache (and other in-flight responses), so no
// appending in place — json.Marshal leaves spare capacity and a
// concurrent append would race on the common backing array.
func writeRaw(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	io.WriteString(w, "\n")
}

func (s *Service) handleGetRun(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobDoc(job, true))
}

func (s *Service) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	job, _ := s.Job(id)
	writeJSON(w, http.StatusOK, s.jobDoc(job, false))
}

func (s *Service) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	w.Header().Set("X-Dtad-Cache", "hit")
	writeRaw(w, data)
}

func (s *Service) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ids := req.Experiments
	if len(ids) == 0 && req.All {
		for _, e := range s.list() {
			ids = append(ids, e.ID)
		}
	}
	sweep, err := s.SubmitSweep(ids, req.Options.Harness())
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.sweepDoc(sweep))
}

func (s *Service) sweepDoc(sweep *Sweep) SweepDoc {
	doc := SweepDoc{Sweep: sweep.ID, Total: len(sweep.Jobs)}
	for _, j := range sweep.Jobs {
		jd := s.jobDoc(j, false)
		if jd.State.Terminal() {
			doc.Done++
		}
		doc.Jobs = append(doc.Jobs, jd)
	}
	return doc
}

func (s *Service) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sweep, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.sweepDoc(sweep))
}

// handleStreamSweep writes one NDJSON RunLine per experiment, in
// submission order, each line flushed as soon as that job completes.
func (s *Service) handleStreamSweep(w http.ResponseWriter, r *http.Request) {
	sweep, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for _, job := range sweep.Jobs {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
		line, err := s.streamLine(job)
		if err != nil {
			line = []byte(fmt.Sprintf(`{"experiment":%q,"error":%q}`, job.Experiment, err.Error()))
		}
		w.Write(append(line, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// streamLine renders a terminal job as a RunLine, reusing the result
// document's tables/metrics so the stream matches `dta exp -json`.
func (s *Service) streamLine(job *Job) ([]byte, error) {
	doc := s.jobDoc(job, true)
	line := RunLine{
		Experiment: doc.Experiment,
		Key:        doc.Key,
		ElapsedMS:  doc.ElapsedMS,
	}
	switch doc.State {
	case JobDone:
		var res ResultDoc
		if err := json.Unmarshal(doc.Result, &res); err != nil {
			return nil, err
		}
		line.Tables = res.Tables
		line.Notes = res.Notes
		line.Metrics = res.Metrics
	case JobCanceled:
		line.Error = "canceled"
	default:
		line.Error = doc.Error
	}
	return json.Marshal(line)
}
