package simsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/progress"
	"mallacc/internal/retry"
)

// watchdog returns a context that fails the test if the scheduler wedges.
func watchdog(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// testSpec returns a distinct valid canonical spec per index, so every
// enqueued job has its own content address.
func testSpec(t *testing.T, i int) JobSpec {
	t.Helper()
	c, err := JobSpec{Workload: "ubench.gauss", Calls: 1000, Seed: uint64(i + 1)}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// blockingRunner is a controllable stub: each run signals started and then
// waits for release or its context.
type blockingRunner struct {
	started chan string // receives the spec key when a run begins
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
	b.started <- spec.Key()
	select {
	case <-b.release:
		return []byte(`{"id":"stub"}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestSchedulerRunsJobs(t *testing.T) {
	var n atomic.Int32
	s := NewScheduler(SchedulerConfig{Workers: 2, Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
		n.Add(1)
		return []byte(spec.Key()), nil
	}})
	defer s.Drain(watchdog(t))

	ids := make([]string, 8)
	for i := range ids {
		st, err := s.enqueue(testSpec(t, i), fmt.Sprintf("k%d", i), false)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("state = %s, want queued", st.State)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := s.Await(watchdog(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d: state = %s (%s)", i, st.State, st.Error)
		}
		if string(st.Report) != testSpec(t, i).Key() {
			t.Fatalf("job %d: wrong report routed", i)
		}
	}
	if got := n.Load(); got != 8 {
		t.Fatalf("runner executed %d times, want 8", got)
	}
}

func TestSchedulerBackpressure(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueHighWater: 2, Runner: b.run})

	// One job occupies the worker; once it is running, two more fill the
	// queue to the high-water mark.
	if _, err := s.enqueue(testSpec(t, 0), "k0", false); err != nil {
		t.Fatal(err)
	}
	<-b.started // worker has popped the first job
	for i := 1; i < 3; i++ {
		if _, err := s.enqueue(testSpec(t, i), fmt.Sprintf("k%d", i), false); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.enqueue(testSpec(t, 3), "k3", false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if h := s.Health(); h.QueueDepth != 2 || h.Busy != 1 {
		t.Fatalf("health = %+v", h)
	}

	close(b.release)
	if err := s.Drain(watchdog(t)); err != nil {
		t.Fatal(err)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: b.run})

	first, _ := s.enqueue(testSpec(t, 0), "k0", false)
	queued, _ := s.enqueue(testSpec(t, 1), "k1", false)
	<-b.started // first is running, second still queued

	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled immediately", st.State)
	}
	// Canceling again reports the job as already finished.
	if _, err := s.Cancel(queued.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("second cancel err = %v, want ErrJobFinished", err)
	}

	close(b.release)
	if st, err := s.Await(watchdog(t), first.ID); err != nil || st.State != StateDone {
		t.Fatalf("first job: %v / %+v", err, st)
	}
	s.Drain(watchdog(t))
}

func TestCancelRunningJob(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: b.run})

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	<-b.started

	mid, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateRunning {
		t.Fatalf("cancel of a running job returns its running status, got %s", mid.State)
	}
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if final.Report != nil {
		t.Fatal("canceled job must not carry a report")
	}
	s.Drain(watchdog(t))
}

func TestJobTimeout(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{Workers: 1, JobTimeout: 50 * time.Millisecond, Runner: b.run})

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Error == "" {
		t.Fatal("timeout must be reported in the job error")
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	s.Drain(watchdog(t))
}

func TestWorkerPanicIsolation(t *testing.T) {
	var calls atomic.Int32
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("boom: simulated bug")
		}
		return []byte("ok"), nil
	}})

	bad, _ := s.enqueue(testSpec(t, 0), "k0", false)
	good, _ := s.enqueue(testSpec(t, 1), "k1", false)

	st, err := s.Await(watchdog(t), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("panicked job: %+v", st)
	}
	// The same worker survives to run the next job.
	st, err = s.Await(watchdog(t), good.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("follow-up job: state = %s (%s)", st.State, st.Error)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	s.Drain(watchdog(t))
}

// TestCancelSentinelPanic checks the experiment-abort path: a runner that
// panics with the cancellation sentinel yields a canceled job, not a
// failed one, and no panic is counted.
func TestCancelSentinelPanic(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
		panic(errRunCanceled)
	}})
	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if got := s.panics.Load(); got != 0 {
		t.Fatalf("panics = %d, want 0", got)
	}
	s.Drain(watchdog(t))
}

func TestGracefulDrain(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: b.run})

	running, _ := s.enqueue(testSpec(t, 0), "k0", false)
	queued, _ := s.enqueue(testSpec(t, 1), "k1", false)
	<-b.started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(watchdog(t)) }()

	// Drain cancels the queued job promptly but lets the running one
	// finish.
	st, err := s.Await(watchdog(t), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job under drain: %s", st.State)
	}

	// Intake is closed.
	if _, err := s.enqueue(testSpec(t, 2), "k2", false); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue under drain: %v, want ErrDraining", err)
	}
	if _, err := s.Completed(testSpec(t, 3), "k3", []byte("x")); !errors.Is(err, ErrDraining) {
		t.Fatalf("completed under drain: %v, want ErrDraining", err)
	}

	close(b.release) // let the in-flight job complete
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err = s.Job(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("in-flight job after drain: %s, want done", st.State)
	}
}

// TestDrainDeadlineForceCancels covers the impatient path: when the drain
// context dies first, in-flight jobs are force-canceled and Drain still
// returns (with the context's error) instead of hanging.
func TestDrainDeadlineForceCancels(t *testing.T) {
	b := newBlockingRunner() // never released
	s := NewScheduler(SchedulerConfig{Workers: 1, Runner: b.run})
	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	<-b.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	final, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("force-canceled job: %s", final.State)
	}
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines to
// give the race detector surface area.
func TestConcurrentSubmitters(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, QueueHighWater: 1024,
		Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) { return []byte("ok"), nil }})
	var wg sync.WaitGroup
	var done atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st, err := s.enqueue(testSpec(t, g*20+i), fmt.Sprintf("k%d-%d", g, i), false)
				if err != nil {
					continue
				}
				if fin, err := s.Await(watchdog(t), st.ID); err == nil && fin.State == StateDone {
					done.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if done.Load() == 0 {
		t.Fatal("no jobs completed")
	}
	if err := s.Drain(watchdog(t)); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) { return nil, nil }})
	defer s.Drain(watchdog(t))
	if _, err := s.Job("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Job: %v", err)
	}
	if _, err := s.Await(watchdog(t), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Await: %v", err)
	}
	if _, err := s.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel: %v", err)
	}
}

// flakyRunner fails its first failures attempts with a transient error,
// then succeeds.
func flakyRunner(failures int, result []byte) (Runner, *atomic.Int32) {
	var calls atomic.Int32
	return func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
		if int(calls.Add(1)) <= failures {
			return nil, retry.Transient(errors.New("flaky: try again"))
		}
		return result, nil
	}, &calls
}

func fastBackoff() *retry.Backoff {
	return retry.NewBackoff(time.Millisecond, 2*time.Millisecond, 1)
}

// TestRetryTransientThenSuccess: two transient failures, then success —
// the job completes with three attempts.
func TestRetryTransientThenSuccess(t *testing.T) {
	run, calls := flakyRunner(2, []byte("ok"))
	s := NewScheduler(SchedulerConfig{
		Workers: 1, Runner: run, MaxAttempts: 3, Backoff: fastBackoff(),
	})
	defer s.Drain(watchdog(t))

	st, err := s.enqueue(testSpec(t, 0), "k0", false)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || string(final.Report) != "ok" {
		t.Fatalf("final: %+v", final)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("runner ran %d times, want 3", got)
	}
	if got := s.retryAttempts.Load(); got != 2 {
		t.Fatalf("retryAttempts = %d, want 2", got)
	}
	if got := s.retrySucceeded.Load(); got != 1 {
		t.Fatalf("retrySucceeded = %d, want 1", got)
	}
}

// TestRetryPermanentIsFinal: a permanent error fails on the first attempt.
func TestRetryPermanentIsFinal(t *testing.T) {
	var calls atomic.Int32
	s := NewScheduler(SchedulerConfig{
		Workers: 1, MaxAttempts: 3, Backoff: fastBackoff(),
		Runner: func(ctx context.Context, spec JobSpec, _ progress.Reporter) ([]byte, error) {
			calls.Add(1)
			return nil, errors.New("unknown experiment: deterministic, retrying is futile")
		},
	})
	defer s.Drain(watchdog(t))

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Attempts != 1 {
		t.Fatalf("final: state %s attempts %d, want failed/1", final.State, final.Attempts)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}
	if got := s.retryAttempts.Load(); got != 0 {
		t.Fatalf("retryAttempts = %d, want 0", got)
	}
}

// TestRetryExhausted: a persistently transient error fails after exactly
// MaxAttempts runs and counts as exhausted.
func TestRetryExhausted(t *testing.T) {
	run, calls := flakyRunner(1<<30, nil) // never succeeds
	s := NewScheduler(SchedulerConfig{
		Workers: 1, Runner: run, MaxAttempts: 3, Backoff: fastBackoff(),
	})
	defer s.Drain(watchdog(t))

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Attempts != 3 {
		t.Fatalf("final: state %s attempts %d, want failed/3", final.State, final.Attempts)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("runner ran %d times, want 3", got)
	}
	if got := s.retryExhausted.Load(); got != 1 {
		t.Fatalf("retryExhausted = %d, want 1", got)
	}
}

// TestCancelWhileRetrying: a job waiting out a long backoff can be
// canceled immediately; its timer must not resurrect it.
func TestCancelWhileRetrying(t *testing.T) {
	run, _ := flakyRunner(1<<30, nil)
	s := NewScheduler(SchedulerConfig{
		Workers: 1, Runner: run, MaxAttempts: 3,
		// A huge backoff window keeps the job parked in retrying.
		Backoff: retry.NewBackoff(time.Hour, time.Hour, 1),
	})
	defer s.Drain(watchdog(t))

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := s.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRetrying {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never entered retrying (state %s)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if h := s.Health(); h.Retrying != 1 {
		t.Fatalf("health.Retrying = %d, want 1", h.Retrying)
	}

	canceled, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("cancel of retrying job: state %s, want canceled", canceled.State)
	}
	if h := s.Health(); h.Retrying != 0 {
		t.Fatalf("health.Retrying = %d after cancel, want 0", h.Retrying)
	}
}

// TestDrainCancelsRetryingJobs: draining does not wait out backoff timers.
func TestDrainCancelsRetryingJobs(t *testing.T) {
	run, _ := flakyRunner(1<<30, nil)
	s := NewScheduler(SchedulerConfig{
		Workers: 1, Runner: run, MaxAttempts: 3,
		Backoff: retry.NewBackoff(time.Hour, time.Hour, 1),
	})
	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	for {
		cur, _ := s.Job(st.ID)
		if cur.State == StateRetrying {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(watchdog(t)); err != nil {
		t.Fatal(err)
	}
	final, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("retrying job after drain: %s, want canceled", final.State)
	}
}

// TestNoRetryOnContextCancel: a canceled job is abandoned, never retried.
func TestNoRetryOnContextCancel(t *testing.T) {
	b := newBlockingRunner()
	s := NewScheduler(SchedulerConfig{
		Workers: 1, Runner: b.run, MaxAttempts: 3, Backoff: fastBackoff(),
	})
	defer s.Drain(watchdog(t))

	st, _ := s.enqueue(testSpec(t, 0), "k0", false)
	<-b.started
	s.Cancel(st.ID)
	final, err := s.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled || final.Attempts != 1 {
		t.Fatalf("final: state %s attempts %d, want canceled/1", final.State, final.Attempts)
	}
}
