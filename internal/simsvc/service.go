package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/progress"
	"mallacc/internal/retry"
	"mallacc/internal/telemetry"
	"mallacc/internal/workload"
)

// Config sizes a Service.
type Config struct {
	// Workers is the simulation worker-pool width (default GOMAXPROCS).
	Workers int
	// QueueHighWater is the backpressure threshold (default 64).
	QueueHighWater int
	// JobTimeout bounds one job (default 10m).
	JobTimeout time.Duration
	// CacheEntries sizes the in-memory report LRU (default 256).
	CacheEntries int
	// CacheDir, when set, persists reports to CacheDir/<key>.json.
	CacheDir string
	// MaxAttempts bounds runs per job, first try included (default 3).
	MaxAttempts int
	// RetryBackoff supplies the jittered wait between attempts; the
	// scheduler default applies when nil.
	RetryBackoff *retry.Backoff
	// Registry receives the simsvc.* metrics; a fresh one is created when
	// nil.
	Registry *telemetry.Registry
	// TraceDir, when set, persists recorded traces to TraceDir/<key>.trace;
	// empty keeps the trace store memory-only.
	TraceDir string
	// ProgressEvery is the progress-event cadence in simulated cycles
	// (default progress.DefaultEvery). Cadence is on the deterministic
	// simulated clock, so a job's event stream is a pure function of its
	// spec.
	ProgressEvery uint64
	// SSEHeartbeat is the idle keep-alive interval on event streams
	// (default 15s).
	SSEHeartbeat time.Duration
	// PeerFill, when set, is consulted on a local cache miss before the
	// job is enqueued: it may return the report bytes another fleet node
	// already computed (see internal/fleet.PeerFiller). A successful fill
	// goes into the memory tier only — the node that computed the report
	// holds the durable copy — and behaves exactly like a cache hit.
	PeerFill func(key string) ([]byte, bool)
}

// maxRunResults bounds each run-level result map. Past the cap new results
// are still returned but no longer memoized; a sweep grid is a few hundred
// runs, far below it.
const maxRunResults = 4096

// Service glues the scheduler, the job-level report cache and the
// run-level result caches together and exposes the submit/query surface
// the HTTP handler and the batch CLIs share.
type Service struct {
	reg    *telemetry.Registry
	cache  *Cache
	sched  *Scheduler
	traces *TraceStore

	progressEvery uint64
	sseHeartbeat  time.Duration
	sseStreams    atomic.Uint64

	// peerFill is Config.PeerFill; peerServed / peerNotFound count the
	// serving side of peer fills (GET /v1/cache/{key} hits and misses).
	peerFill     func(key string) ([]byte, bool)
	peerServed   atomic.Uint64
	peerNotFound atomic.Uint64
	// peerStored counts reports accepted via PUT /v1/cache/{key} — a
	// departing peer handing its cache off to this node.
	peerStored atomic.Uint64

	// Run-level memoization: experiments with overlapping grids (fig13 and
	// fig14 share every run; fig17's sweep revisits the headline points)
	// resolve their inner simulations here, keyed by the full option set.
	// A key being simulated has a flight that later callers wait on.
	runMu          sync.Mutex
	runResults     map[string]*harness.Result
	clusterResults map[string]*multicore.Result
	runFlights     map[string]*flight[*harness.Result]
	clusterFlights map[string]*flight[*multicore.Result]

	// simulate executes one single-core run (harness.Run) and
	// simulateCluster one multi-core run (multicore.Run); tests wrap them
	// to observe concurrency.
	simulate        func(harness.Options) *harness.Result
	simulateCluster func(multicore.Config) *multicore.Result

	runHits, runMisses atomic.Uint64
}

// New builds and starts a service. The returned service accepts jobs
// immediately; call Drain to shut it down.
func New(cfg Config) (*Service, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	traces, err := NewTraceStore(cfg.TraceDir)
	if err != nil {
		return nil, err
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = DefaultSSEHeartbeat
	}
	s := &Service{
		reg:             reg,
		cache:           cache,
		traces:          traces,
		progressEvery:   cfg.ProgressEvery,
		sseHeartbeat:    cfg.SSEHeartbeat,
		peerFill:        cfg.PeerFill,
		runResults:      map[string]*harness.Result{},
		clusterResults:  map[string]*multicore.Result{},
		runFlights:      map[string]*flight[*harness.Result]{},
		clusterFlights:  map[string]*flight[*multicore.Result]{},
		simulate:        harness.Run,
		simulateCluster: multicore.Run,
	}
	s.sched = NewScheduler(SchedulerConfig{
		Workers:        cfg.Workers,
		QueueHighWater: cfg.QueueHighWater,
		JobTimeout:     cfg.JobTimeout,
		Runner:         s.execute,
		MaxAttempts:    cfg.MaxAttempts,
		Backoff:        cfg.RetryBackoff,
	})
	s.cache.RegisterMetrics(reg)
	s.sched.RegisterMetrics(reg)
	s.traces.RegisterMetrics(reg)
	reg.Counter("simsvc.runcache.hits", s.runHits.Load)
	reg.Counter("simsvc.runcache.misses", s.runMisses.Load)
	reg.Counter("simsvc.sse.streams", s.sseStreams.Load)
	reg.Counter("simsvc.cache.peer.served", s.peerServed.Load)
	reg.Counter("simsvc.cache.peer.notfound", s.peerNotFound.Load)
	reg.Counter("simsvc.cache.peer.stored", s.peerStored.Load)
	multicore.RegisterMemoMetrics(reg)
	return s, nil
}

// Registry returns the service's metric registry.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Cache returns the job-level report cache.
func (s *Service) Cache() *Cache { return s.cache }

// Submit canonicalizes and admits a job. A cache hit returns a job already
// in state done with the stored report and Cached set; a miss first tries
// the peer-fill hook (another fleet node may already hold the report), then
// enqueues the job for the pool. A miss replaying a recorded trace this
// node's store does not hold is refused as an invalid spec (the cache and
// peer fill still serve its report without the trace).
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	return s.submit(spec, false)
}

// submit is Submit; with now set a miss is admitted only if a worker can
// start it at once, so a fleet coordinator can try the next node instead
// of queueing behind a busy one. Hits are served either way.
func (s *Service) submit(spec JobSpec, now bool) (JobStatus, error) {
	c, err := spec.Canonicalize()
	if err != nil {
		return JobStatus{}, err
	}
	key := c.Key()
	if b, ok := s.cache.Get(key); ok {
		return s.sched.Completed(c, key, b)
	}
	if s.peerFill != nil {
		if b, ok := s.peerFill(key); ok {
			s.cache.insert(key, b)
			return s.sched.Completed(c, key, b)
		}
	}
	if tk, ok := ParseTraceKey(c.Workload); ok {
		if _, found := s.traces.Get(tk); !found {
			return JobStatus{}, fmt.Errorf("%w: trace %s not found in trace store", ErrInvalidSpec, tk)
		}
	}
	return s.sched.enqueue(c, key, now)
}

// Events returns a job's event log for tailing (see Scheduler.Events).
func (s *Service) Events(id string) (*eventLog, error) { return s.sched.Events(id) }

// Job returns a job's current status.
func (s *Service) Job(id string) (JobStatus, error) { return s.sched.Job(id) }

// Await blocks until the job is terminal or ctx expires.
func (s *Service) Await(ctx context.Context, id string) (JobStatus, error) {
	return s.sched.Await(ctx, id)
}

// Cancel cancels a job (see Scheduler.Cancel).
func (s *Service) Cancel(id string) (JobStatus, error) { return s.sched.Cancel(id) }

// Health returns the scheduler's occupancy.
func (s *Service) Health() Health { return s.sched.Health() }

// Drain gracefully shuts the service down (see Scheduler.Drain).
func (s *Service) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// execute is the scheduler's Runner: it simulates the spec, serializes the
// report, and stores it under the job's content address.
func (s *Service) execute(ctx context.Context, spec JobSpec, prog progress.Reporter) ([]byte, error) {
	if err := faults.Inject(faults.PointExec); err != nil {
		return nil, err
	}
	rep, err := s.buildReport(ctx, spec, prog)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("marshal report: %w", err)
	}
	s.cache.Put(spec.Key(), b)
	return b, nil
}

// resolveWorkload maps a spec's workload name to a runnable generator:
// either a stock workload or a recorded trace fetched from the trace store.
// Submit already refused trace keys the store did not hold; a miss here is
// a permanent error — retrying cannot make a missing artifact appear.
func (s *Service) resolveWorkload(name string) (workload.Workload, error) {
	if key, ok := ParseTraceKey(name); ok {
		tr, found := s.traces.Get(key)
		if !found {
			return nil, fmt.Errorf("trace %s not found in trace store", key)
		}
		return tr, nil
	}
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// buildReport runs the simulation behind a canonical spec. prog receives
// the job's progress snapshots; run/cluster jobs report straight from the
// simulator's deterministic clock, experiment jobs report one cumulative
// snapshot per completed inner run, in grid order (ExpOptions.Progress).
func (s *Service) buildReport(ctx context.Context, spec JobSpec, prog progress.Reporter) (*harness.Report, error) {
	switch spec.Kind {
	case KindRun:
		w, err := s.resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		opt := spec.RunOptions(w)
		opt.Progress = prog
		opt.ProgressEvery = s.progressEvery
		return harness.ReportForRun(s.cachedRun(opt, nil), spec.Metrics), nil
	case KindCluster:
		w, err := s.resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		cfg := spec.ClusterConfig(w)
		cfg.Progress = prog
		cfg.ProgressEvery = s.progressEvery
		return harness.ReportForCluster(s.cachedCluster(cfg, nil), spec.Metrics), nil
	case KindExperiment:
		exp, ok := harness.ByID(spec.Experiment)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", spec.Experiment)
		}
		// The hooks below abort at the next run boundary once the job's
		// context dies: experiments are long chains of runs, and the
		// sentinel panic reaches the worker's isolation goroutine through
		// the experiment's grid. Concurrent cells, single- and multi-core,
		// run on the job's own worker or on idle workers it borrows
		// (cellSlots).
		cells := s.sched.cellSlots(ctx)
		return exp.Run(harness.ExpOptions{
			Calls:    spec.Calls,
			Seeds:    spec.Seeds,
			Seed:     spec.Seed,
			Metrics:  spec.Metrics,
			Cores:    spec.Cores,
			Progress: prog,
			Submit: func(opt harness.Options) *harness.Result {
				abortIfDone(ctx)
				return s.cachedRun(opt, cells)
			},
			SubmitCluster: func(cfg multicore.Config) *multicore.Result {
				abortIfDone(ctx)
				return s.cachedCluster(cfg, cells)
			},
		}), nil
	default:
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// abortIfDone panics with the cancellation sentinel once the job context
// is dead, aborting an experiment at a run boundary.
func abortIfDone(ctx context.Context) {
	if ctx.Err() != nil {
		panic(errRunCanceled)
	}
}

// cachedRun memoizes single-core runs by full option fingerprint. cells,
// when set, gates the simulation itself: an experiment's concurrent cells
// take a slot only on a miss.
func (s *Service) cachedRun(opt harness.Options, cells *cellSlots) *harness.Result {
	sim := func() *harness.Result {
		if cells != nil {
			defer cells.acquire()()
		}
		return s.simulate(opt)
	}
	key, ok := runKeyOf(opt)
	if !ok {
		return sim()
	}
	return memoize(s, s.runResults, s.runFlights, key, sim)
}

// cachedCluster memoizes multi-core runs by full config fingerprint. cells
// gates the simulation exactly as in cachedRun.
func (s *Service) cachedCluster(cfg multicore.Config, cells *cellSlots) *multicore.Result {
	sim := func() *multicore.Result {
		if cells != nil {
			defer cells.acquire()()
		}
		return s.simulateCluster(cfg)
	}
	key, ok := clusterKeyOf(cfg)
	if !ok {
		return sim()
	}
	return memoize(s, s.clusterResults, s.clusterFlights, key, sim)
}

// flight is one simulation in progress under a run-level cache key.
type flight[R any] struct {
	done chan struct{} // closed when the owner returns or panics
	r    R
	ok   bool // the owner returned r; false when it panicked
}

// memoize resolves key from the run-level cache, simulating it with sim on
// a miss. A caller that finds the key already simulating waits for that
// result and counts as a hit, so concurrent experiments sharing a grid —
// fig13 and fig14 submitted together — simulate each cell once. If the
// owner panics (a cancellation sentinel or a simulator fault) its waiters
// are released and retry, simulating the cell themselves if need be.
func memoize[R any](s *Service, results map[string]R, flights map[string]*flight[R], key string, sim func() R) R {
	for {
		s.runMu.Lock()
		if r, hit := results[key]; hit {
			s.runMu.Unlock()
			s.runHits.Add(1)
			return r
		}
		if f, busy := flights[key]; busy {
			s.runMu.Unlock()
			<-f.done
			if f.ok {
				s.runHits.Add(1)
				return f.r
			}
			continue
		}
		f := &flight[R]{done: make(chan struct{})}
		flights[key] = f
		s.runMu.Unlock()
		s.runMisses.Add(1)

		defer func() {
			s.runMu.Lock()
			delete(flights, key)
			if f.ok && len(results) < maxRunResults {
				results[key] = f.r
			}
			s.runMu.Unlock()
			close(f.done)
		}()
		f.r = sim()
		f.ok = true
		return f.r
	}
}

// RunOptions lowers a canonical run spec to harness options, with the
// spec's workload already resolved (stock generator or recorded trace).
// The service and mallacc-sim's local path both run specs through it.
func (s JobSpec) RunOptions(w workload.Workload) harness.Options {
	v, _ := multicore.VariantByName(s.Variant) // Canonicalize validated it
	return harness.Options{
		Workload:  w,
		Variant:   v,
		Backend:   s.Backend,
		MCEntries: s.MCEntries,
		Calls:     s.Calls,
		Seed:      s.Seed,
	}
}

// ClusterConfig lowers a canonical cluster spec to a multicore config,
// splitting the call budget evenly across cores (at least one call each).
func (s JobSpec) ClusterConfig(w workload.Workload) multicore.Config {
	perCore := s.Calls / s.Cores
	if perCore < 1 {
		perCore = 1
	}
	v, _ := multicore.VariantByName(s.Variant) // Canonicalize validated it
	return multicore.Config{
		Cores:        s.Cores,
		Variant:      v,
		Backend:      s.Backend,
		MCEntries:    s.MCEntries,
		Workload:     w,
		CallsPerCore: perCore,
		Seed:         s.Seed,
	}
}
