package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
)

// JobState is a job's lifecycle stage.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one submitted experiment run. All mutable fields are guarded
// by the owning Service's mutex; Done() is closed exactly once when the
// job reaches a terminal state, after Result/Err are set, so waiters
// may read them without the lock once Done() fires.
type Job struct {
	ID         string
	Key        string
	Experiment string
	Options    harness.Options // canonical (defaults applied)

	State     JobState
	CacheHit  bool
	Err       string
	Result    json.RawMessage // content-addressed ResultDoc bytes when done
	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	done chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Sweep groups the jobs of one batch submission.
type Sweep struct {
	ID        string
	Jobs      []*Job
	Submitted time.Time
}

// Config sizes a Service.
type Config struct {
	Workers    int // simulation worker pool; <= 0 selects runtime.NumCPU()
	CacheSize  int // max cached result documents; <= 0 selects DefaultCacheSize
	QueueDepth int // max jobs waiting for a worker; <= 0 selects 1024

	// BatchWidth > 1 makes each worker interleave up to that many jobs
	// cooperatively: simulations advance in bounded slices (see
	// harness.Batched), so a worker keeps several jobs in flight and
	// reuses one machine pool across them. Results are byte-identical to
	// the run-to-completion default (<= 1).
	BatchWidth int

	// CheckpointDir, when set, spills harness checkpoint snapshots
	// (shared warm-up prefixes; see harness.CheckpointCache) to disk so
	// they survive restarts. CheckpointDiskBytes bounds the directory,
	// oldest-by-mtime evicted first (<= 0 selects
	// DefaultCheckpointDiskBytes). Empty disables the spill; the
	// in-memory checkpoint caches work either way.
	CheckpointDir       string
	CheckpointDiskBytes int64

	// JobRetention bounds how many terminal jobs stay pollable; the
	// oldest are forgotten first (<= 0 selects 4096). Live jobs are
	// already bounded by QueueDepth + Workers, so this caps the job
	// table — a long-running daemon must not grow per request served.
	JobRetention int
	// SweepRetention bounds the sweep table the same way, oldest first
	// (<= 0 selects 512).
	SweepRetention int

	// Lookup resolves experiment ids and List enumerates them; nil
	// selects harness.ByID / harness.All. Tests inject stub experiments
	// (slow, failing) through these; they must agree with each other.
	Lookup func(id string) (*harness.Experiment, bool)
	List   func() []*harness.Experiment

	// Logger receives structured job-lifecycle and request lines; nil
	// discards them (tests stay quiet by default).
	Logger *slog.Logger
}

// Service owns the job queue, worker pool and result cache. Workers run
// each job through the same per-experiment isolation as
// harness.Parallel (fresh Context, panic containment), so every
// simulation stays single-threaded and deterministic; only the fan-out
// across jobs is concurrent.
type Service struct {
	cfg     Config
	cache   *Cache
	lookup  func(id string) (*harness.Experiment, bool)
	list    func() []*harness.Experiment
	log     *slog.Logger
	reg     *obs.Registry
	started time.Time
	// httpMetrics maps mux patterns to pre-registered series; "" is the
	// catch-all for unmatched requests. Built once in buildRegistry.
	httpMetrics map[string]*routeMetrics
	// spill is the on-disk checkpoint store shared by every worker's
	// checkpoint cache; nil when Config.CheckpointDir is unset.
	spill *DiskSpill

	mu          sync.Mutex
	jobs        map[string]*Job
	sweeps      map[string]*Sweep
	inflight    map[string]*Job // run key -> non-terminal job, for coalescing
	retired     []string        // terminal job ids, oldest first, for retention pruning
	sweepOrder  []string        // sweep ids, oldest first
	jobSeq      int
	sweepSeq    int
	closed      bool
	queue       chan *Job
	wg          sync.WaitGroup
	simulated   atomic.Int64 // simulations actually executed (≠ submissions served)
	simCycles   atomic.Int64 // cumulative simulated cycles across executed jobs
	busyWorkers atomic.Int64
	reqSeq      atomic.Int64 // request-id source for the HTTP middleware
}

// New starts a Service with cfg's worker pool already running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 4096
	}
	if cfg.SweepRetention <= 0 {
		cfg.SweepRetention = 512
	}
	if cfg.Lookup == nil {
		cfg.Lookup = harness.ByID
	}
	if cfg.List == nil {
		cfg.List = harness.All
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheSize),
		lookup:   cfg.Lookup,
		list:     cfg.List,
		log:      logger,
		started:  time.Now(),
		jobs:     make(map[string]*Job),
		sweeps:   make(map[string]*Sweep),
		inflight: make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	if cfg.CheckpointDir != "" {
		spill, err := NewDiskSpill(cfg.CheckpointDir, cfg.CheckpointDiskBytes)
		if err != nil {
			// The spill is an optimisation; run memory-only rather than
			// refuse to start.
			logger.Error("checkpoint spill disabled", "dir", cfg.CheckpointDir, "err", err)
		} else {
			s.spill = spill
		}
	}
	s.buildRegistry()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Cache exposes the result cache (for stats and direct key lookups).
func (s *Service) Cache() *Cache { return s.cache }

// Simulations returns how many simulations have actually executed —
// cache-served submissions do not move it.
func (s *Service) Simulations() int64 { return s.simulated.Load() }

// SimCycles returns the cumulative simulated cycles across all
// executed jobs (cache-served submissions contribute nothing).
func (s *Service) SimCycles() int64 { return s.simCycles.Load() }

// Uptime returns how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// BatchWidth returns the configured cooperative batch width.
func (s *Service) BatchWidth() int { return s.cfg.BatchWidth }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// QueueLen returns the number of jobs waiting for a worker.
func (s *Service) QueueLen() int { return len(s.queue) }

// ErrDraining rejects submissions after Close has been called.
var ErrDraining = errors.New("service is draining")

// Submit enqueues one experiment run. If the run key is already cached
// the returned job is terminal immediately (State JobDone, CacheHit
// true) and no simulation is scheduled. If the same key is already
// queued or running, the existing job is returned instead of scheduling
// a duplicate — concurrent identical submissions coalesce onto one
// simulation (canceling that job cancels it for every submitter).
func (s *Service) Submit(experimentID string, opt harness.Options) (*Job, error) {
	exp, ok := s.lookup(experimentID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", experimentID)
	}
	opt = opt.WithDefaults()
	key := RunKey(exp.ID, opt)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrDraining
	}
	if pending, ok := s.inflight[key]; ok {
		return pending, nil
	}
	s.jobSeq++
	job := &Job{
		ID:         fmt.Sprintf("job-%06d", s.jobSeq),
		Key:        key,
		Experiment: exp.ID,
		Options:    opt,
		State:      JobQueued,
		Submitted:  time.Now(),
		done:       make(chan struct{}),
	}
	s.jobs[job.ID] = job

	if data, hit := s.cache.Get(key); hit {
		job.State = JobDone
		job.CacheHit = true
		job.Result = data
		job.Finished = job.Submitted
		s.retireLocked(job)
		close(job.done)
		s.log.Info("job cached", "job", job.ID, "key", key, "experiment", exp.ID)
		return job, nil
	}
	select {
	case s.queue <- job:
		s.inflight[key] = job
		s.log.Info("job queued", "job", job.ID, "key", key, "experiment", exp.ID)
	default:
		job.State = JobFailed
		job.Err = fmt.Sprintf("queue full (depth %d)", s.cfg.QueueDepth)
		job.Finished = time.Now()
		s.retireLocked(job)
		close(job.done)
		return job, fmt.Errorf("queue full (depth %d)", s.cfg.QueueDepth)
	}
	return job, nil
}

// retireLocked records a terminal job for retention pruning and forgets
// the oldest terminal jobs beyond the configured bound. Live jobs are
// never pruned (only terminal ids enter the list), so polling a job id
// can 404 only after JobRetention newer jobs finished. Callers hold
// s.mu.
func (s *Service) retireLocked(job *Job) {
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	s.retired = append(s.retired, job.ID)
	for len(s.retired) > s.cfg.JobRetention {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// SubmitSweep enqueues a batch of experiments as one sweep. All ids are
// validated before any job is enqueued, so a typo rejects the whole
// sweep instead of half-submitting it.
func (s *Service) SubmitSweep(experimentIDs []string, opt harness.Options) (*Sweep, error) {
	if len(experimentIDs) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	for _, id := range experimentIDs {
		if _, ok := s.lookup(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	sweep := &Sweep{Submitted: time.Now()}
	for _, id := range experimentIDs {
		job, err := s.Submit(id, opt)
		if err != nil && job == nil {
			return nil, err
		}
		// A queue-full job is still part of the sweep, terminal with an
		// error, so the caller sees exactly what was dropped.
		sweep.Jobs = append(sweep.Jobs, job)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepSeq++
	sweep.ID = fmt.Sprintf("sweep-%06d", s.sweepSeq)
	s.sweeps[sweep.ID] = sweep
	s.sweepOrder = append(s.sweepOrder, sweep.ID)
	for len(s.sweepOrder) > s.cfg.SweepRetention {
		delete(s.sweeps, s.sweepOrder[0])
		s.sweepOrder = s.sweepOrder[1:]
	}
	return sweep, nil
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Sweep looks up a sweep by id.
func (s *Service) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// Cancel cancels a queued job. Running simulations are single-threaded
// compute with no preemption points, so only jobs still waiting for a
// worker can be canceled.
func (s *Service) Cancel(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[jobID]
	if !ok {
		return fmt.Errorf("unknown job %q", jobID)
	}
	if job.State != JobQueued {
		return fmt.Errorf("job %s is %s, only queued jobs can be canceled", jobID, job.State)
	}
	job.State = JobCanceled
	job.Finished = time.Now()
	s.retireLocked(job)
	close(job.done)
	return nil
}

// Close drains the service: no new submissions are accepted, queued
// jobs still run to completion, and Close returns once every worker
// has exited. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// worker executes queued jobs until the queue closes. Each worker owns
// a registry of shared BatchStates keyed by the program-shaping Options
// fields (Quick, Seed): every job joining an existing state reuses its
// program cache and — decisively — its RUN CACHE (the machine pool is
// the worker's, shared by every state), so a
// sweep whose jobs overlap in simulations computes each one once per
// worker instead of once per job. With BatchWidth > 1 the worker
// interleaves that many jobs cooperatively under the horizon-aware
// scheduler (batch.RunScheduled); the fibers never execute
// simultaneously, so sharing stays lock-free, and a fiber wanting a
// simulation a sibling is computing parks on the scheduler's waiting
// list instead of recomputing it (see harness.Context).
func (s *Service) worker() {
	defer s.wg.Done()
	// One checkpoint cache per worker, shared across all its states, so
	// a sweep's variants fork from each other's warm-up prefixes even
	// across Quick/Seed boundaries (snapshot keys are content-addressed);
	// the spill underneath is process-wide and survives restarts.
	ckpts := harness.NewCheckpointCache(0)
	if s.spill != nil {
		ckpts.SetSpill(s.spill)
	}
	states := newStateRegistry(s.cfg.BatchWidth, ckpts)
	if width := s.cfg.BatchWidth; width > 1 {
		batch.RunScheduled(width, batch.KeyedFeedChan(s.queue, func(job *Job) batch.KeyedTask {
			return harness.SchedTask(func(sched func(next sim.Cycle) sim.Cycle) {
				state := states.acquire(job.Options)
				defer states.release(job.Options)
				s.runJob(job, func(opt harness.Options) *harness.Context {
					return state.ContextFor(opt, sched)
				})
			})
		}))
		return
	}
	for job := range s.queue {
		state := states.acquire(job.Options)
		s.runJob(job, func(opt harness.Options) *harness.Context {
			return state.ContextFor(opt, nil)
		})
		states.release(job.Options)
	}
}

// runJob executes one job end to end; mkCtx builds the job's run
// context (plain or batched, always over the worker's machine pool).
// The simulation itself goes through harness.RunOn — the same
// containment primitive as CLI sweeps — so error returns and panics
// surface exactly as they do there.
func (s *Service) runJob(job *Job, mkCtx func(harness.Options) *harness.Context) {
	s.mu.Lock()
	if job.State != JobQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.State = JobRunning
	job.Started = time.Now()
	s.mu.Unlock()

	finish := func(mutate func(*Job)) {
		s.mu.Lock()
		mutate(job)
		job.Finished = time.Now()
		s.retireLocked(job)
		s.mu.Unlock()
		close(job.done)
	}

	// Another worker may have computed this key while the job queued.
	// peek, not Get: the submission already recorded its cache miss.
	if data, hit := s.cache.peek(job.Key); hit {
		finish(func(j *Job) {
			j.State = JobDone
			j.CacheHit = true
			j.Result = data
		})
		return
	}

	exp, ok := s.lookup(job.Experiment)
	if !ok {
		finish(func(j *Job) {
			j.State = JobFailed
			j.Err = fmt.Sprintf("experiment %q disappeared", j.Experiment)
		})
		return
	}
	s.simulated.Add(1)
	s.busyWorkers.Add(1)
	res := harness.RunOn(mkCtx(job.Options), exp)
	s.busyWorkers.Add(-1)
	s.simCycles.Add(res.SimCycles)
	if res.Err != nil {
		s.log.Error("job failed", "job", job.ID, "key", job.Key, "experiment", job.Experiment, "error", res.Err.Error())
		finish(func(j *Job) {
			j.State = JobFailed
			j.Err = res.Err.Error()
		})
		return
	}
	data, err := EncodeResult(job.Experiment, job.Options, res.Outcome)
	if err != nil {
		finish(func(j *Job) {
			j.State = JobFailed
			j.Err = err.Error()
		})
		return
	}
	s.cache.Put(job.Key, data)
	finish(func(j *Job) {
		j.State = JobDone
		j.Result = data
	})
	s.log.Info("job done", "job", job.ID, "key", job.Key, "experiment", job.Experiment,
		"sim_cycles", res.SimCycles, "elapsed_ms", time.Since(job.Started).Milliseconds())
}
