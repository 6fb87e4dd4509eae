package simsvc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/harness"
)

// Experiment cells: an experiment job runs its grid's single-core cells
// concurrently, on its own worker plus idle workers it borrows.

// concurrencyProbe wraps a service's simulate hook to count simulations
// started and record the peak number in flight and the peak scheduler
// occupancy seen while they run.
type concurrencyProbe struct {
	started, inFlight, peak, busy atomic.Int32
}

func probeConcurrency(svc *Service, hold time.Duration) *concurrencyProbe {
	p := &concurrencyProbe{}
	svc.simulate = func(o harness.Options) *harness.Result {
		p.started.Add(1)
		raise(&p.peak, p.inFlight.Add(1))
		defer p.inFlight.Add(-1)
		raise(&p.busy, int32(svc.Health().Busy))
		time.Sleep(hold)
		return harness.Run(o)
	}
	return p
}

// raise lifts *max to at least v.
func raise(max *atomic.Int32, v int32) {
	for m := max.Load(); v > m && !max.CompareAndSwap(m, v); m = max.Load() {
	}
}

// withProcs sets GOMAXPROCS for the rest of the test, so the grid's width
// does not depend on the host.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestExperimentCellsBorrowIdleWorkers: with two workers and one job, the
// job's cells overlap on its own worker and one borrowed worker, and the
// scheduler never counts more simulations than it has workers.
func TestExperimentCellsBorrowIdleWorkers(t *testing.T) {
	withProcs(t, 4)
	svc := newTestService(t, Config{Workers: 2})
	p := probeConcurrency(svc, 5*time.Millisecond)
	submitWait(t, svc, JobSpec{Experiment: "fig13", Calls: 600})
	if got := p.peak.Load(); got != 2 {
		t.Fatalf("peak concurrent cells %d, want 2 (own worker + one borrowed)", got)
	}
	if got := p.busy.Load(); got > 2 {
		t.Fatalf("simsvc.workers.busy reached %d with Workers: 2", got)
	}
	if got := svc.Health().Busy; got != 0 {
		t.Fatalf("busy = %d after the job finished, want 0", got)
	}
}

// TestExperimentCellsOneWorker: with a single worker there is nothing to
// borrow, so cells never overlap however wide the grid's fan-out is.
func TestExperimentCellsOneWorker(t *testing.T) {
	withProcs(t, 4)
	svc := newTestService(t, Config{Workers: 1})
	p := probeConcurrency(svc, 2*time.Millisecond)
	submitWait(t, svc, JobSpec{Experiment: "fig13", Calls: 600})
	if got := p.peak.Load(); got != 1 {
		t.Fatalf("peak concurrent cells %d with Workers: 1, want 1", got)
	}
	if got := p.busy.Load(); got > 1 {
		t.Fatalf("simsvc.workers.busy reached %d with Workers: 1", got)
	}
}

// TestQueuedJobsKeepPriority: a job submitted while an experiment holds
// a borrowed worker waits only for that worker to come back, not for the
// experiment to finish — cells stop borrowing while anything is queued —
// and the pool never runs more than two simulations meanwhile.
func TestQueuedJobsKeepPriority(t *testing.T) {
	withProcs(t, 4)
	svc := newTestService(t, Config{Workers: 2})
	p := probeConcurrency(svc, 5*time.Millisecond)
	a, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 600})
	if err != nil {
		t.Fatal(err)
	}
	ctx := watchdog(t)
	for p.inFlight.Load() < 2 {
		if ctx.Err() != nil {
			t.Fatal("the experiment never borrowed the idle worker")
		}
		time.Sleep(100 * time.Microsecond)
	}
	b, err := svc.Submit(JobSpec{Experiment: "fig18", Calls: 700})
	if err != nil {
		t.Fatal(err)
	}
	var final [2]JobStatus
	for i, id := range []string{a.ID, b.ID} {
		if final[i], err = svc.Await(ctx, id); err != nil || final[i].State != StateDone {
			t.Fatalf("job %s: %v %s %s", id, err, final[i].State, final[i].Error)
		}
	}
	if !final[1].StartedAt.Before(*final[0].FinishedAt) {
		t.Fatalf("queued job started at %v, after the experiment finished at %v", final[1].StartedAt, final[0].FinishedAt)
	}
	if got := p.peak.Load(); got > 2 {
		t.Fatalf("peak concurrent simulations %d with Workers: 2", got)
	}
	if got := p.busy.Load(); got > 2 {
		t.Fatalf("simsvc.workers.busy reached %d with Workers: 2", got)
	}
}

// TestConcurrentExperimentsDedupInFlight submits fig13 and fig14 together
// on two workers. They share all 24 cells; whichever job reaches a cell
// second waits for the first one's simulation instead of repeating it, so
// exactly 24 cells are simulated.
func TestConcurrentExperimentsDedupInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	withProcs(t, 4)
	svc := newTestService(t, Config{Workers: 2})
	a, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(JobSpec{Experiment: "fig14", Calls: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := svc.Await(watchdog(t), id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v %s %s", id, err, st.State, st.Error)
		}
	}
	snap := svc.Registry().Snapshot()
	if got := snap.Value("simsvc.runcache.misses"); got != 24 {
		t.Fatalf("simsvc.runcache.misses = %v, want 24 (one per shared cell)", got)
	}
	if got := snap.Value("simsvc.runcache.hits"); got != 24 {
		t.Fatalf("simsvc.runcache.hits = %v, want 24", got)
	}
}

// TestInFlightOwnerPanicReleasesWaiters: when the caller simulating a key
// panics, a caller waiting on that key is released and simulates the key
// itself rather than hanging or sharing a result that never came.
func TestInFlightOwnerPanicReleasesWaiters(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	results := map[string]int{}
	flights := map[string]*flight[int]{}
	ownerIn := make(chan struct{})
	fail := make(chan struct{})
	boom := errors.New("owner failed")

	var wg sync.WaitGroup
	wg.Add(1)
	var ownerPanic any
	go func() {
		defer wg.Done()
		defer func() { ownerPanic = recover() }()
		memoize(svc, results, flights, "k", func() int {
			close(ownerIn)
			<-fail
			panic(boom)
		})
	}()
	<-ownerIn
	waiter := make(chan int)
	go func() {
		waiter <- memoize(svc, results, flights, "k", func() int { return 7 })
	}()
	// Give the waiter time to find the flight, then fail its owner.
	time.Sleep(20 * time.Millisecond)
	close(fail)
	wg.Wait()
	if ownerPanic != boom {
		t.Fatalf("owner recovered %v, want its own panic", ownerPanic)
	}
	select {
	case got := <-waiter:
		if got != 7 {
			t.Fatalf("waiter got %d, want its own simulation's 7", got)
		}
	case <-watchdog(t).Done():
		t.Fatal("waiter hung after the owner panicked")
	}
	if results["k"] != 7 || len(flights) != 0 {
		t.Fatalf("cache %v, flights %v after recovery", results, flights)
	}
	if got := svc.Registry().Snapshot().Value("simsvc.runcache.misses"); got != 2 {
		t.Fatalf("misses = %v, want 2 (owner and waiter both simulated)", got)
	}
}

// TestExperimentCancelMidGridFreesWorkers cancels an experiment job while
// its cells are spread over both workers: the job ends canceled, every
// borrowed worker is returned once the in-flight cells finish, and the
// cells that were waiting for a slot never start.
func TestExperimentCancelMidGridFreesWorkers(t *testing.T) {
	withProcs(t, 4)
	svc := newTestService(t, Config{Workers: 2})
	p := probeConcurrency(svc, 20*time.Millisecond)
	st, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 600})
	if err != nil {
		t.Fatal(err)
	}
	ctx := watchdog(t)
	for p.peak.Load() < 2 {
		if ctx.Err() != nil {
			t.Fatal("cells never spread over both workers")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	started := p.started.Load()
	final, err := svc.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	for svc.Health().Busy != 0 || p.inFlight.Load() != 0 {
		if ctx.Err() != nil {
			t.Fatalf("busy = %d, cells in flight = %d long after cancel", svc.Health().Busy, p.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // longer than one cell
	if got := p.started.Load(); got != started {
		t.Fatalf("%d cells started after the job was canceled", got-started)
	}
	if svc.Registry().Snapshot().Value("simsvc.jobs.panics") != 0 {
		t.Fatal("cancellation sentinel was miscounted as a panic")
	}
}
