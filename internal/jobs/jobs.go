// Package jobs runs the federation server's trace computations
// asynchronously: a bounded submission queue feeds a fixed worker pool, each
// job walks a queued → running → done/failed status machine, and a
// content-hash result cache collapses identical requests — if two clients
// score the same test set against the same federation state, the tracer runs
// once. Per-job contexts carry a configurable timeout and are cancelled on
// engine shutdown, so a graceful drain never hangs on a stuck computation.
//
// The engine is result-type agnostic (results are `any`); the server layer
// defines what a trace job returns.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// FaultRun is the fault-injection site inside a job's protected run: an
// injected error there is indistinguishable from the job function failing,
// and an injected panic exercises the quarantine path. Config.Faults of nil
// leaves it inert.
const FaultRun = "jobs.run"

// Status is a job's position in its lifecycle state machine.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// ErrQueueFull is returned by Submit when the bounded queue has no room;
// callers should surface it as backpressure (HTTP 429/503), not retry-loop.
var ErrQueueFull = errors.New("jobs: submission queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("jobs: engine closed")

// PanicError marks a job that panicked. Panics are treated as poison — the
// job is quarantined (View.Quarantined, ctfl_jobs_quarantined_total) —
// because a deterministic computation that panicked once will panic again.
type PanicError struct {
	// Value is what the job passed to panic.
	Value any
}

func (p *PanicError) Error() string { return fmt.Sprintf("jobs: job panicked: %v", p.Value) }

// Fn is the work a job performs. It must honour ctx: the context is
// cancelled on per-job timeout and on engine shutdown.
type Fn func(ctx context.Context) (any, error)

// Job is one submitted computation. Snapshot returns a consistent view;
// Done exposes a channel closed when the job reaches a terminal status.
type Job struct {
	id  string
	key string

	mu          sync.Mutex
	status      Status
	result      any
	err         error
	cacheHit    bool
	quarantined bool
	enqueued    time.Time
	started     time.Time
	finished    time.Time

	done chan struct{}
	fn   Fn
}

// ID returns the job's engine-unique identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// View is an immutable snapshot of a job's externally visible state.
type View struct {
	ID       string
	Key      string
	Status   Status
	Result   any
	Err      error
	CacheHit bool
	// Quarantined marks a poison job: its function panicked.
	Quarantined bool
	Enqueued    time.Time
	Started     time.Time
	Finished    time.Time
}

// Snapshot returns the job's current state without races.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID: j.id, Key: j.key, Status: j.status, Result: j.result, Err: j.err,
		CacheHit: j.cacheHit, Quarantined: j.quarantined,
		Enqueued: j.enqueued, Started: j.started, Finished: j.finished,
	}
}

// Config tunes an Engine.
type Config struct {
	// Workers is the pool size. Default 4.
	Workers int
	// QueueDepth bounds jobs waiting for a worker. Default 64.
	QueueDepth int
	// JobTimeout caps a single job's run time. Default 2 minutes.
	JobTimeout time.Duration
	// CacheSize bounds the result cache (completed jobs retained by content
	// key, FIFO eviction). Default 128; negative disables caching.
	CacheSize int
	// RetainJobs bounds how many terminal jobs stay queryable by id beyond
	// those in the cache. Default 512.
	RetainJobs int
	// Faults injects failures at FaultRun inside the protected run, for
	// resilience testing. Nil (the production default) disables injection.
	Faults *faults.Injector
	// Obs receives engine telemetry. Nil uses a private, unregistered
	// instrument set.
	Obs *Obs
	// Now is the engine's clock for job timestamps (enqueued/started/
	// finished and the derived wait/run histograms). Nil means time.Now;
	// tests inject a fake for deterministic timing assertions.
	Now func() time.Time
	// OnFinish observes every job reaching a terminal status (done or
	// failed), with its final snapshot. It runs on the worker goroutine
	// before the job's Done channel closes, so waiters always see the
	// callback's effects; keep it cheap and never block. Nil disables.
	// The server wires the flight recorder here.
	OnFinish func(View)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 512
	}
	if c.Obs == nil {
		c.Obs = NewObs(telemetry.NewRegistry())
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Obs is the engine's instrument set. Gauges (QueueDepth, Running) move
// both ways; counters are monotonic. The cache hit ratio is
// CacheHits / CacheLookups.
type Obs struct {
	Submitted    *telemetry.Counter
	Done         *telemetry.Counter
	Failed       *telemetry.Counter
	CacheHits    *telemetry.Counter
	CacheLookups *telemetry.Counter
	Rejected     *telemetry.Counter
	// Quarantined counts poison (panicking) jobs.
	Quarantined *telemetry.Counter
	QueueDepth  *telemetry.Gauge
	Running     *telemetry.Gauge
	// WaitSeconds is time spent queued before a worker picked the job up;
	// RunSeconds is the job function's execution time.
	WaitSeconds *telemetry.Histogram
	RunSeconds  *telemetry.Histogram
}

// NewObs registers the job-engine metric family on r and returns the
// handle to pass in Config.Obs.
func NewObs(r *telemetry.Registry) *Obs {
	return &Obs{
		Submitted:    r.Counter("ctfl_jobs_submitted_total", "jobs accepted into the queue"),
		Done:         r.Counter("ctfl_jobs_done_total", "jobs finished successfully"),
		Failed:       r.Counter("ctfl_jobs_failed_total", "jobs finished with an error"),
		CacheHits:    r.Counter("ctfl_jobs_cache_hits_total", "submissions served by the result cache"),
		CacheLookups: r.Counter("ctfl_jobs_cache_lookups_total", "submissions that consulted the result cache"),
		Rejected:     r.Counter("ctfl_jobs_rejected_total", "submissions rejected by queue backpressure"),
		Quarantined:  r.Counter("ctfl_jobs_quarantined_total", "poison jobs: the job function panicked"),
		QueueDepth:   r.Gauge("ctfl_jobs_queue_depth", "jobs waiting for a worker"),
		Running:      r.Gauge("ctfl_jobs_running", "jobs currently executing"),
		WaitSeconds:  r.Histogram("ctfl_jobs_wait_seconds", "queue wait time before execution", nil),
		RunSeconds:   r.Histogram("ctfl_jobs_run_seconds", "job execution time", nil),
	}
}

// Engine is the async job runner. Create with New, stop with Close.
type Engine struct {
	cfg Config
	obs *Obs
	now func() time.Time

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      uint64
	jobs     map[string]*Job // by id, bounded by RetainJobs + live jobs
	jobOrder []string        // terminal job ids, eviction order
	cache    map[string]*Job // by content key: in-flight or done jobs
	cacheOrd []string        // done-job keys, eviction order
}

// New starts an engine with cfg's worker pool.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:    cfg,
		obs:    cfg.Obs,
		now:    cfg.Now,
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, cfg.QueueDepth),
		jobs:   make(map[string]*Job),
		cache:  make(map[string]*Job),
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Submit enqueues fn under a content key. If a completed job with the same
// key is cached, or one is already queued/running, that job is returned
// (deduplication) and no new work is enqueued; the returned job's CacheHit
// reflects this. An empty key bypasses the cache entirely. Fails fast with
// ErrQueueFull when the bounded queue is at capacity.
func (e *Engine) Submit(key string, fn Fn) (*Job, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if key != "" && e.cfg.CacheSize > 0 {
		e.obs.CacheLookups.Inc()
		if j, ok := e.cache[key]; ok {
			j.mu.Lock()
			j.cacheHit = true
			j.mu.Unlock()
			e.obs.CacheHits.Inc()
			e.mu.Unlock()
			return j, nil
		}
	}
	e.seq++
	j := &Job{
		id:       fmt.Sprintf("job-%08d", e.seq),
		key:      key,
		status:   StatusQueued,
		enqueued: e.now(),
		done:     make(chan struct{}),
		fn:       fn,
	}

	select {
	case e.queue <- j:
	default:
		e.obs.Rejected.Inc()
		e.mu.Unlock()
		return nil, ErrQueueFull
	}
	e.jobs[j.id] = j
	if key != "" && e.cfg.CacheSize > 0 {
		e.cache[key] = j // dedup in-flight submissions immediately
	}
	e.obs.Submitted.Inc()
	e.obs.QueueDepth.Add(1)
	e.mu.Unlock()
	return j, nil
}

// Get looks a job up by id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Wait blocks until the job finishes or ctx is done, returning the final
// snapshot.
func (e *Engine) Wait(ctx context.Context, j *Job) (View, error) {
	select {
	case <-j.Done():
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.run(j)
	}
}

func (e *Engine) run(j *Job) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = e.now()
	wait := j.started.Sub(j.enqueued)
	fn := j.fn
	j.fn = nil // release captured state once run
	j.mu.Unlock()
	e.obs.QueueDepth.Add(-1)
	e.obs.Running.Add(1)
	e.obs.WaitSeconds.Observe(wait.Seconds())

	ctx, cancel := context.WithTimeout(e.ctx, e.cfg.JobTimeout)
	result, err := runProtected(ctx, e.cfg.Faults, fn)
	cancel()
	var pe *PanicError
	quarantined := errors.As(err, &pe)

	j.mu.Lock()
	j.finished = e.now()
	run := j.finished.Sub(j.started)
	j.quarantined = quarantined
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.result = result
	}
	j.mu.Unlock()
	e.obs.Running.Add(-1)
	e.obs.RunSeconds.Observe(run.Seconds())
	if err != nil {
		e.obs.Failed.Inc()
	} else {
		e.obs.Done.Inc()
	}
	if quarantined {
		e.obs.Quarantined.Inc()
	}
	if e.cfg.OnFinish != nil {
		e.cfg.OnFinish(j.Snapshot())
	}
	close(j.done)
	e.retire(j, err == nil)
}

// runProtected converts a panicking job into a failed one carrying a
// *PanicError; one poisoned trace must not take down the worker pool. The
// injector's FaultRun site fires inside the recovery scope, so injected
// panics exercise the same quarantine path as real ones.
func runProtected(ctx context.Context, in *faults.Injector, fn Fn) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &PanicError{Value: r}
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Err(FaultRun); err != nil {
		return nil, err
	}
	return fn(ctx)
}

// retire moves a terminal job into the bounded cache / retention structures.
func (e *Engine) retire(j *Job, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.key != "" && e.cfg.CacheSize > 0 {
		if ok {
			e.cacheOrd = append(e.cacheOrd, j.key)
			for len(e.cacheOrd) > e.cfg.CacheSize {
				evict := e.cacheOrd[0]
				e.cacheOrd = e.cacheOrd[1:]
				if cached, exists := e.cache[evict]; exists && cached != j {
					delete(e.cache, evict)
				}
			}
		} else if e.cache[j.key] == j {
			// Failed jobs must not satisfy future submissions.
			delete(e.cache, j.key)
		}
	}
	e.jobOrder = append(e.jobOrder, j.id)
	for len(e.jobOrder) > e.cfg.RetainJobs {
		evict := e.jobOrder[0]
		e.jobOrder = e.jobOrder[1:]
		if old, exists := e.jobs[evict]; exists {
			if old.key != "" && e.cache[old.key] == old {
				delete(e.cache, old.key)
			}
			delete(e.jobs, evict)
		}
	}
}

// Close drains the engine: no new submissions, queued jobs still run, and
// Close returns when workers finish or ctx expires — in which case running
// job contexts are cancelled and Close waits for the workers to observe it.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		e.cancel()
		return nil
	case <-ctx.Done():
		// Deadline hit: cancel in-flight job contexts and wait them out.
		e.cancel()
		<-finished
		return ctx.Err()
	}
}
