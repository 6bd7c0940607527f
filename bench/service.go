package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

const (
	// serviceClients is the number of closed-loop clients: each sends its
	// next request only after the reply to the previous one. It equals
	// the worker count and the processors of the box the bounds were
	// measured on.
	serviceClients = 2
	// servicePassRequests is the number of requests in one pass.
	servicePassRequests = 400
	// serviceChunk is how many requests the clients share out before they
	// all stop for a speed probe, which needs the processors to itself.
	serviceChunk = 100
	// serviceHotKeys is the size of the hot set, far below the service's
	// 256-entry result cache, so the hot set stays resident while cold
	// keys push each other out.
	serviceHotKeys = 16
	// serviceHotShare is the share of requests drawn from the hot set.
	serviceHotShare = 0.7
)

// serviceExperiments are the four single-simulation experiments the
// request stream draws from.
var serviceExperiments = []string{"mmul-orig", "mmul-pf", "zoom-orig", "zoom-pf"}

// request is one POST /v1/runs of the generated stream.
type request struct {
	experiment string
	seed       uint64 // harness.Options.Seed of the run
	hot        bool   // drawn from the hot set, so the reply must be a cache hit
}

func (q request) body() []byte {
	return []byte(fmt.Sprintf(`{"experiment":%q,"options":{"spes":8,"latency":150,"seed":%d}}`, q.experiment, q.seed))
}

func (q request) key() string {
	return service.RunKey(q.experiment, harness.Options{SPEs: 8, Latency: 150, Seed: q.seed})
}

// hotSet lists the hot keys of a benchmark seed: every experiment at
// serviceHotKeys/4 input seeds.
func hotSet(seed uint64) []request {
	base := seed*1_000_003 + 1
	var out []request
	for i := 0; i < serviceHotKeys; i++ {
		out = append(out, request{
			experiment: serviceExperiments[i%len(serviceExperiments)],
			seed:       base + uint64(i/len(serviceExperiments)),
			hot:        true,
		})
	}
	return out
}

// passRequests generates pass k's requests from the benchmark seed: the
// same number of hot and of cold requests in every pass, the cold ones
// shared evenly between the experiments, in a shuffled order — so that
// passes differ in their keys, not in their work. Cold requests take
// input seeds no other request of the run uses.
func passRequests(seed uint64, k int) []request {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	hot := hotSet(seed)
	coldBase := seed*1_000_003 + 1000 + uint64(k)*servicePassRequests
	nHot := int(serviceHotShare * servicePassRequests)
	out := make([]request, servicePassRequests)
	for i := range out {
		if i < nHot {
			out[i] = hot[rng.IntN(len(hot))]
		} else {
			out[i] = request{
				experiment: serviceExperiments[i%len(serviceExperiments)],
				seed:       coldBase + uint64(i),
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reply is what the benchmark keeps of one answered request.
type reply struct {
	latency time.Duration
	hit     bool
	sum     [32]byte // of the body
	err     error
}

// serviceRunner is service-mix: an in-process dtad (service.New behind
// httptest) under serviceClients closed-loop clients.
type serviceRunner struct {
	svc    *service.Service
	server *httptest.Server
	client *http.Client

	hotSum    map[string][32]byte // body digest per hot key, from the fill
	cold      int                 // cold requests sent, warm-up included
	digest    string              // of the warm-up pass's replies
	counted   *service.StatsDoc   // /v1/stats after timed pass minPasses
	coldLat   []time.Duration     // latency of timed misses
	warmLat   []time.Duration     // latency of timed hits
	timedReqs int
	timedWall time.Duration
}

func (r *serviceRunner) setup(e *env) error {
	r.svc = service.New(service.Config{Workers: serviceClients})
	r.server = httptest.NewServer(r.svc.Handler())
	r.client = r.server.Client()
	r.hotSum = map[string][32]byte{}
	for i, q := range hotSet(e.seed) {
		q.hot = false // the fill is the one time a hot key is simulated
		rep := r.send(e, q, int64(-1-i), 0)
		e.op(rep.latency, rep.err)
		r.hotSum[q.key()] = rep.sum
	}
	r.pass(e, 0)
	r.verify(e, 0)
	return nil
}

// send posts one request and checks the reply against its class.
func (r *serviceRunner) send(e *env, q request, id int64, lane int) reply {
	start := time.Now()
	resp, err := r.client.Post(r.server.URL+"/v1/runs", "application/json", bytes.NewReader(q.body()))
	if err != nil {
		return reply{latency: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{latency: time.Since(start), hit: resp.Header.Get("X-Dtad-Cache") == "hit", sum: sha256.Sum256(body)}
	switch {
	case err != nil:
		rep.err = err
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("%s seed %d: status %d: %.200s", q.experiment, q.seed, resp.StatusCode, body)
	case rep.hit != q.hot:
		rep.err = fmt.Errorf("%s seed %d: X-Dtad-Cache %q for a request that is hot=%v",
			q.experiment, q.seed, resp.Header.Get("X-Dtad-Cache"), q.hot)
	case q.hot && rep.sum != r.hotSum[q.key()]:
		rep.err = fmt.Errorf("%s seed %d: a repeated key returned a different body", q.experiment, q.seed)
	}
	name := "service.request.miss"
	if rep.hit {
		name = "service.request.hit"
	}
	e.tr.add(name, e.passSpan, id, lane, start, rep.latency)
	return rep
}

func (r *serviceRunner) pass(e *env, k int) {
	reqs := passRequests(e.seed, k)
	replies := make([]reply, len(reqs))
	for lo := 0; lo < len(reqs); lo += serviceChunk {
		if lo > 0 {
			e.probe()
		}
		hi := min(lo+serviceChunk, len(reqs))
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					replies[i] = r.send(e, reqs[i], int64(k)*servicePassRequests+int64(i), c)
				}
			}()
		}
		wg.Wait()
		if k > 0 {
			r.timedWall += time.Since(start)
			r.timedReqs += hi - lo
		}
	}

	h := sha256.New()
	for i, rep := range replies {
		e.op(rep.latency, rep.err)
		if !reqs[i].hot {
			r.cold++
		}
		if k == 0 {
			h.Write(rep.sum[:])
		} else if rep.err == nil && rep.hit {
			r.warmLat = append(r.warmLat, rep.latency)
		} else if rep.err == nil {
			r.coldLat = append(r.coldLat, rep.latency)
		}
	}
	if k == 0 {
		r.digest = hex.EncodeToString(h.Sum(nil))
	}
}

// verify has no pass to compare with: every reply is checked as it
// arrives, and the passes of this workload differ by design (cold keys
// are never repeated). It reads the service's counters after the last
// pass every run is sure to make, so that the counts reported do not
// depend on how many passes fit into the measuring time.
func (r *serviceRunner) verify(e *env, k int) {
	if k != minPasses {
		return
	}
	st, err := r.stats()
	if err != nil {
		e.fail(err)
		return
	}
	r.counted = st
}

func (r *serviceRunner) stats() (*service.StatsDoc, error) {
	resp, err := r.client.Get(r.server.URL + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	var st service.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return &st, nil
}

func (r *serviceRunner) finish(e *env, layer map[string]float64) string {
	defer r.svc.Close()
	defer r.server.Close()

	st, err := r.stats()
	if err != nil {
		e.fail(err)
		return r.digest
	}
	if want := int64(serviceHotKeys + r.cold); st.Simulations != want {
		e.fail(fmt.Errorf("service ran %d simulations for %d distinct keys", st.Simulations, want))
	}
	if e.tr == nil || r.counted == nil {
		return r.digest
	}

	st = r.counted
	layer["service.simulations"] = float64(st.Simulations)
	layer["service.cache_hit_ratio"] = st.CacheHitRatio
	layer["service.cache_evictions"] = float64(st.Cache.Evictions)
	layer["model.sim_cycles"] = float64(st.SimCycles)
	layer["spu.issue_cycles"] = float64(st.StallCycles["issue"])
	layer["spu.stall_pct"] = st.StallPct
	if r.timedWall > 0 {
		layer["service.req_per_s"] = float64(r.timedReqs) / r.timedWall.Seconds()
	}
	cold, warm := msOf(r.coldLat), msOf(r.warmLat)
	layer["service.cold_p50_ms"] = percentile(cold, 50)
	layer["service.cold_p95_ms"] = percentile(cold, 95)
	layer["service.cold_p99_ms"] = percentile(cold, 99)
	layer["service.warm_p50_ms"] = percentile(warm, 50)
	layer["service.warm_p95_ms"] = percentile(warm, 95)

	r.probeLayers(e, layer)
	return r.digest
}

// probeLayers times the service's pure functions on their own: the run
// key, the result encoding and the result cache.
func (r *serviceRunner) probeLayers(e *env, layer map[string]float64) {
	opt := harness.Options{SPEs: 8, Latency: 150, Seed: e.seed}
	per := func(name string, n int, fn func(i int)) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		e.tr.add(name, e.passSpan, int64(n), 0, start, d)
		return float64(d) / float64(n)
	}

	layer["service.runkey_us"] = per("service.runkey", 2000, func(i int) {
		service.RunKey(serviceExperiments[i%len(serviceExperiments)], opt)
	}) / 1e3

	exp, ok := harness.ByID("mmul-pf")
	if !ok {
		e.fail(fmt.Errorf("experiment mmul-pf is not registered"))
		return
	}
	res := harness.RunOn(harness.NewContext(opt), exp)
	if res.Err != nil {
		e.fail(fmt.Errorf("mmul-pf: %w", res.Err))
		return
	}
	layer["service.encode_us"] = per("service.encode", 500, func(int) {
		if _, err := service.EncodeRunResult(opt, res); err != nil {
			e.fail(err)
		}
	}) / 1e3

	// A cache of the service's default size, filled to twice its
	// capacity so that half the puts evict, then read where it hits.
	const capacity = 256
	cache := service.NewCache(capacity)
	keys := make([]string, 2*capacity)
	for i := range keys {
		keys[i] = service.RunKey("mmul-pf", harness.Options{Seed: uint64(i + 1)})
	}
	doc := make([]byte, 2048)
	layer["service.cache_put_ns"] = per("service.cache_put", len(keys), func(i int) { cache.Put(keys[i], doc) })
	layer["service.cache_get_ns"] = per("service.cache_get", 20*capacity, func(i int) {
		if _, ok := cache.Get(keys[capacity+i%capacity]); !ok {
			e.fail(fmt.Errorf("result cache lost a resident key"))
		}
	})
}
