package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/progress"
	"mallacc/internal/retry"
	"mallacc/internal/telemetry"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateRetrying JobState = "retrying" // failed transiently; waiting out a backoff before requeue
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Scheduler error taxonomy; the HTTP layer maps these to status codes.
var (
	// ErrQueueFull is backpressure: the queue is at its high-water mark
	// (HTTP 429).
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining rejects new work during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("scheduler draining")
	// ErrUnknownJob means the id was never seen or has been pruned (404).
	ErrUnknownJob = errors.New("unknown job")
	// ErrJobFinished rejects canceling an already-terminal job (409).
	ErrJobFinished = errors.New("job already finished")
)

// errRunCanceled is the sentinel the service's run hooks panic with to
// abandon an experiment at a run boundary once the job context is dead.
// The worker's recover translates it back into context.Canceled instead of
// counting a panic.
var errRunCanceled = errors.New("run aborted: job context canceled")

// Runner executes one job and returns its serialized report. The scheduler
// treats it as opaque; the service injects the simulation-backed runner and
// tests inject stubs. rep (never nil) receives the job's progress snapshots;
// the scheduler fans them out to the job's event stream.
type Runner func(ctx context.Context, spec JobSpec, rep progress.Reporter) ([]byte, error)

// SchedulerConfig sizes the worker pool.
type SchedulerConfig struct {
	// Workers is the pool width (default GOMAXPROCS).
	Workers int
	// QueueHighWater is the backpressure threshold: submissions beyond
	// this many queued jobs get ErrQueueFull (default 64).
	QueueHighWater int
	// JobTimeout bounds one job's run time (default 10m).
	JobTimeout time.Duration
	// Runner executes jobs (required).
	Runner Runner
	// MaxAttempts bounds how many times one job may run, including the
	// first try (default 3). Only transiently-failed attempts are
	// retried; permanent errors, timeouts and cancellations are final.
	MaxAttempts int
	// Backoff supplies the jittered wait between attempts (default
	// 50ms base / 2s max, seed 1).
	Backoff *retry.Backoff
	// OnOutcome, when set, observes every attempt's outcome — including
	// each failed attempt of a retried job. It feeds the service's
	// circuit breaker. It is called without the scheduler lock held, and
	// must not call back into the scheduler.
	OnOutcome func(Outcome)
}

// DefaultQueueHighWater is the backpressure threshold when unset.
const DefaultQueueHighWater = 64

// DefaultJobTimeout bounds a job's run time when unset.
const DefaultJobTimeout = 10 * time.Minute

// DefaultMaxAttempts is the per-job attempt cap when unset.
const DefaultMaxAttempts = 3

// maxRetainedJobs caps how many terminal jobs stay queryable; older ones
// are pruned so a long-lived daemon's job table stays bounded.
const maxRetainedJobs = 1024

// job is the scheduler-internal record.
type job struct {
	id       string
	key      string
	spec     JobSpec
	state    JobState
	cached   bool
	errMsg   string
	result   []byte
	attempts int // attempts started so far
	created  time.Time
	started  time.Time
	ended    time.Time
	cancel   context.CancelFunc
	done     chan struct{}
	// events is the job's append-only progress stream, served over SSE.
	// Created with the job, sealed by the terminal transition.
	events *eventLog
}

// JobStatus is the API-facing copy of a job's state at one instant.
type JobStatus struct {
	ID     string   `json:"id"`
	Key    string   `json:"key"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached"`
	Error  string   `json:"error,omitempty"`
	// Attempts counts runs started for this job; >1 means the retry
	// policy re-executed it after transient failures.
	Attempts int     `json:"attempts,omitempty"`
	Spec     JobSpec `json:"spec"`
	// Report holds the serialized harness.Report once the job is done.
	Report json.RawMessage `json:"report,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// ElapsedSeconds is the wall time the job spent running (0 for cache
	// hits, which never run).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// Scheduler owns the FIFO queue, the worker pool and the job table.
type Scheduler struct {
	cfg SchedulerConfig

	mu       sync.Mutex
	cond     *sync.Cond // signals workers
	slots    *sync.Cond // signals cells waiting for a slot (cellSlots)
	queue    []*job
	jobs     map[string]*job
	retained []string // terminal job ids in finish order, for pruning
	nextID   uint64
	// busy counts running simulations: one per running job, plus one per
	// worker an experiment's cell has borrowed. It never exceeds Workers.
	busy     int
	retrying int // jobs in StateRetrying (waiting out a backoff)
	draining bool
	stopped  bool
	wg       sync.WaitGroup

	submitted, completed, failed, canceled, rejected, panics, timeouts atomic.Uint64
	retryAttempts, retrySucceeded, retryExhausted                      atomic.Uint64
	queueWait, runTime                                                 *telemetry.SyncHist
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueHighWater <= 0 {
		cfg.QueueHighWater = DefaultQueueHighWater
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	if cfg.Runner == nil {
		panic("simsvc: SchedulerConfig.Runner is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Backoff == nil {
		cfg.Backoff = retry.NewBackoff(50*time.Millisecond, 2*time.Second, 1)
	}
	s := &Scheduler{
		cfg:       cfg,
		jobs:      map[string]*job{},
		queueWait: telemetry.NewSyncHist(),
		runTime:   telemetry.NewSyncHist(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.slots = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// newJobLocked allocates a job record and registers it in the table.
func (s *Scheduler) newJobLocked(spec JobSpec, key string) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%08d", s.nextID),
		key:     key,
		spec:    spec,
		created: time.Now(),
		done:    make(chan struct{}),
		events:  newEventLog(),
	}
	s.jobs[j.id] = j
	return j
}

// statusLocked copies a job for the API. The result slice is shared — it
// is immutable once set.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Cached:    j.cached,
		Error:     j.errMsg,
		Attempts:  j.attempts,
		Spec:      j.spec,
		Report:    j.result,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		st.FinishedAt = &t
	}
	if !j.started.IsZero() && !j.ended.IsZero() {
		st.ElapsedSeconds = j.ended.Sub(j.started).Seconds()
	}
	return st
}

// Enqueue admits a new job at the tail of the FIFO queue. It returns
// ErrDraining during shutdown and ErrQueueFull past the high-water mark.
func (s *Scheduler) Enqueue(spec JobSpec, key string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueHighWater {
		s.rejected.Add(1)
		return JobStatus{}, ErrQueueFull
	}
	j := s.newJobLocked(spec, key)
	j.state = StateQueued
	s.queue = append(s.queue, j)
	s.submitted.Add(1)
	s.cond.Signal()
	return j.statusLocked(), nil
}

// Completed records a job satisfied from the result cache: it is born
// terminal and never occupies a worker.
func (s *Scheduler) Completed(spec JobSpec, key string, result []byte) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	j := s.newJobLocked(spec, key)
	j.state = StateDone
	j.cached = true
	j.result = result
	j.ended = j.created
	j.events.close(EventDone, nil)
	close(j.done)
	s.submitted.Add(1)
	s.completed.Add(1)
	s.retainLocked(j)
	return j.statusLocked(), nil
}

// Job returns the current status of a job.
func (s *Scheduler) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.statusLocked(), nil
}

// Await blocks until the job reaches a terminal state or ctx expires. A nil
// ctx waits indefinitely.
func (s *Scheduler) Await(ctx context.Context, id string) (JobStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Cancel cancels a job: a queued job terminates immediately, a running job
// has its context canceled (the worker finishes it asynchronously), and a
// terminal job returns ErrJobFinished alongside its final status.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.slots.Broadcast() // an emptied queue frees idle workers to lend
		s.finishLocked(j, StateCanceled, "canceled while queued", nil)
		st := j.statusLocked()
		s.mu.Unlock()
		// The submission was admitted (it may hold a half-open probe slot)
		// but produced no verdict; release it.
		s.report(OutcomeAbandoned)
		return st, nil
	case StateRetrying:
		s.finishLocked(j, StateCanceled, "canceled while awaiting retry", nil)
		st := j.statusLocked()
		s.mu.Unlock()
		s.report(OutcomeAbandoned)
		return st, nil
	case StateRunning:
		cancel := j.cancel
		st := j.statusLocked()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st, nil
	default:
		st := j.statusLocked()
		s.mu.Unlock()
		return st, ErrJobFinished
	}
}

// report forwards one attempt outcome to the breaker hook. Must be
// called without the scheduler lock held (the hook may take other locks).
func (s *Scheduler) report(o Outcome) {
	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(o)
	}
}

// finishLocked moves a job to a terminal state and wakes waiters.
func (s *Scheduler) finishLocked(j *job, state JobState, errMsg string, result []byte) {
	if j.state == StateRetrying {
		s.retrying--
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.ended = time.Now()
	j.cancel = nil
	close(j.done)
	switch state {
	case StateDone:
		s.completed.Add(1)
		j.events.close(EventDone, nil)
	case StateFailed:
		s.failed.Add(1)
		j.events.close(EventFailed, errorData(errMsg))
	case StateCanceled:
		s.canceled.Add(1)
		j.events.close(EventCanceled, errorData(errMsg))
	}
	s.retainLocked(j)
	s.cond.Broadcast() // wake workers parked while the pool was full
}

// retainLocked bounds the terminal-job table.
func (s *Scheduler) retainLocked(j *job) {
	s.retained = append(s.retained, j.id)
	for len(s.retained) > maxRetainedJobs {
		delete(s.jobs, s.retained[0])
		s.retained = s.retained[1:]
	}
}

// worker pops jobs off the queue until the scheduler stops. It pops only
// while a simulation slot is free: a worker lent to an experiment's cell
// (cellSlots) stays busy until the cell returns it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for (len(s.queue) == 0 || s.busy >= s.cfg.Workers) && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // stopped and drained
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = StateRunning
		j.attempts++
		j.started = time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
		j.cancel = cancel
		s.busy++
		s.slots.Broadcast() // the queue may now be empty
		s.mu.Unlock()

		s.queueWait.Observe(uint64(j.started.Sub(j.created).Microseconds()))
		// The reporter appends to the job's event log under the log's own
		// lock — never the scheduler's — so a simulation deep in its hot
		// loop can report without contending with the job table. Appends
		// after the terminal event (an abandoned timed-out run still holds
		// the reporter) are dropped by the sealed log.
		rep := progress.Func(func(sn progress.Snapshot) {
			j.events.append(EventProgress, progressData(sn))
		})
		result, err := s.runIsolated(ctx, j.spec, rep)
		cancel()

		s.mu.Lock()
		s.busy--
		s.slots.Broadcast()
		var outcome Outcome
		switch {
		case err == nil:
			if j.attempts > 1 {
				s.retrySucceeded.Add(1)
			}
			s.finishLocked(j, StateDone, "", result)
			s.runTime.Observe(uint64(j.ended.Sub(j.started).Microseconds()))
			outcome = OutcomeSuccess
		case errors.Is(err, context.Canceled):
			s.finishLocked(j, StateCanceled, "canceled while running", nil)
			outcome = OutcomeAbandoned
		case errors.Is(err, context.DeadlineExceeded):
			// Timeouts are final: the runner is deterministic, so a rerun
			// would spend another full JobTimeout to the same end.
			s.timeouts.Add(1)
			s.finishLocked(j, StateFailed, fmt.Sprintf("timeout after %s", s.cfg.JobTimeout), nil)
			outcome = OutcomeFailure
		case retry.IsTransient(err) && j.attempts < s.cfg.MaxAttempts && !s.draining && !s.stopped:
			j.state = StateRetrying
			j.errMsg = err.Error()
			j.cancel = nil
			s.retrying++
			s.retryAttempts.Add(1)
			s.scheduleRetry(j, s.cfg.Backoff.Delay(j.attempts-1))
			outcome = OutcomeFailure
		default:
			if retry.IsTransient(err) {
				s.retryExhausted.Add(1)
			}
			s.finishLocked(j, StateFailed, err.Error(), nil)
			outcome = OutcomeFailure
		}
		s.mu.Unlock()
		s.report(outcome)
	}
}

// scheduleRetry arms the backoff timer that requeues a transiently-failed
// job. The timer re-checks state under the lock when it fires: a job
// canceled (or a scheduler drained) while waiting is left alone — whoever
// changed the state already finished the job.
func (s *Scheduler) scheduleRetry(j *job, delay time.Duration) {
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		if j.state != StateRetrying {
			s.mu.Unlock()
			return
		}
		if s.draining || s.stopped {
			s.finishLocked(j, StateCanceled, "canceled: draining", nil)
			s.mu.Unlock()
			s.report(OutcomeAbandoned)
			return
		}
		// Requeue directly: a retry bypasses the high-water check — the
		// job was already admitted once and rejecting it now would turn a
		// transient fault into a permanent failure.
		s.retrying--
		j.state = StateQueued
		s.queue = append(s.queue, j)
		s.cond.Signal()
		s.mu.Unlock()
	})
}

// runIsolated executes the runner in its own goroutine so a panicking job
// fails alone instead of killing the worker, and so cancellation does not
// have to wait for a non-preemptible simulation: on ctx.Done the worker
// abandons the run (the orphaned goroutine's result is dropped on the
// buffered channel).
func (s *Scheduler) runIsolated(ctx context.Context, spec JobSpec, rep progress.Reporter) ([]byte, error) {
	type outcome struct {
		result []byte
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errRunCanceled) {
					ch <- outcome{nil, context.Canceled}
					return
				}
				s.panics.Add(1)
				ch <- outcome{nil, fmt.Errorf("job panicked: %v", r)}
			}
		}()
		result, err := s.cfg.Runner(ctx, spec, rep)
		ch <- outcome{result, err}
	}()
	select {
	case o := <-ch:
		return o.result, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// cellSlots admits the concurrent cells of one experiment job. A cell runs
// on the job's own worker slot when that is free, or on an idle worker
// borrowed from the pool — but only while no job is queued, so queued jobs
// keep priority, and only while busy < Workers, so cells and jobs together
// never run more simulations than the pool is wide.
type cellSlots struct {
	s       *Scheduler
	ctx     context.Context // the job's
	ownBusy bool            // guarded by s.mu
}

// cellSlots returns the slot gate for the cells of the experiment job
// running under ctx.
func (s *Scheduler) cellSlots(ctx context.Context) *cellSlots {
	return &cellSlots{s: s, ctx: ctx}
}

// acquire blocks until a slot is free and returns the function that gives
// it back. Once the job's context is dead it panics with the cancellation
// sentinel instead, so cells queued behind a canceled job's running ones
// never start.
func (c *cellSlots) acquire() (release func()) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if c.ctx.Err() != nil {
			panic(errRunCanceled)
		}
		if !c.ownBusy {
			c.ownBusy = true
			return c.releaseOwn
		}
		if len(s.queue) == 0 && s.busy < s.cfg.Workers {
			s.busy++
			return c.releaseBorrowed
		}
		s.slots.Wait()
	}
}

func (c *cellSlots) releaseOwn() {
	c.s.mu.Lock()
	c.ownBusy = false
	c.s.slots.Broadcast()
	c.s.mu.Unlock()
}

func (c *cellSlots) releaseBorrowed() {
	s := c.s
	s.mu.Lock()
	s.busy--
	s.slots.Broadcast()
	s.cond.Signal() // a queued job may be waiting for this worker
	s.mu.Unlock()
}

// Events returns the job's event log for tailing. The log outlives the
// job's terminal transition, so finished jobs replay their full stream.
func (s *Scheduler) Events(id string) (*eventLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.events, nil
}

// Health is the scheduler's live occupancy reading.
type Health struct {
	Workers    int  `json:"workers"`
	Busy       int  `json:"busy"`
	QueueDepth int  `json:"queue_depth"`
	Retrying   int  `json:"retrying"`
	Draining   bool `json:"draining"`
}

// Health returns current occupancy.
func (s *Scheduler) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		Workers:    s.cfg.Workers,
		Busy:       s.busy,
		QueueDepth: len(s.queue),
		Retrying:   s.retrying,
		Draining:   s.draining,
	}
}

// Drain gracefully shuts the scheduler down: intake stops, queued jobs are
// canceled, and in-flight jobs run to completion. If ctx expires first the
// in-flight jobs are force-canceled and Drain returns ctx.Err after the
// workers unwind. Drain is idempotent only in effect; call it once.
func (s *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.draining = true
	for _, j := range s.queue {
		s.finishLocked(j, StateCanceled, "canceled: draining", nil)
	}
	s.queue = nil
	s.slots.Broadcast()
	// Jobs waiting out a retry backoff are canceled too; their timers
	// find a non-retrying state and no-op.
	for _, j := range s.jobs {
		if j.state == StateRetrying {
			s.finishLocked(j, StateCanceled, "canceled: draining", nil)
		}
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done // workers return promptly once their contexts die
		return ctx.Err()
	}
}

// RegisterMetrics publishes the scheduler's counters, gauges and latency
// histograms under simsvc.*.
func (s *Scheduler) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("simsvc.jobs.submitted", s.submitted.Load)
	reg.Counter("simsvc.jobs.completed", s.completed.Load)
	reg.Counter("simsvc.jobs.failed", s.failed.Load)
	reg.Counter("simsvc.jobs.canceled", s.canceled.Load)
	reg.Counter("simsvc.jobs.rejected", s.rejected.Load)
	reg.Counter("simsvc.jobs.panics", s.panics.Load)
	reg.Counter("simsvc.jobs.timeouts", s.timeouts.Load)
	reg.Counter("simsvc.retries.attempts", s.retryAttempts.Load)
	reg.Counter("simsvc.retries.succeeded", s.retrySucceeded.Load)
	reg.Counter("simsvc.retries.exhausted", s.retryExhausted.Load)
	reg.Gauge("simsvc.workers", func() float64 { return float64(s.cfg.Workers) })
	reg.Gauge("simsvc.workers.busy", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.busy)
	})
	reg.Gauge("simsvc.workers.utilization", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return telemetry.Rate(uint64(s.busy), uint64(s.cfg.Workers))
	})
	reg.Gauge("simsvc.queue.depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	reg.SyncHistogram("simsvc.job.queue_us", s.queueWait)
	reg.SyncHistogram("simsvc.job.run_us", s.runTime)
}
