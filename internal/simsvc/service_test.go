package simsvc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/stats"
	"mallacc/internal/workload"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Drain(watchdog(t)) })
	return svc
}

func submitWait(t *testing.T, svc *Service, spec JobSpec) JobStatus {
	t.Helper()
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		st, err = svc.Await(watchdog(t), st.ID)
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	return st
}

// TestMemoCountersOnServiceRegistry: the process-wide schedule-memo
// counters appear on the service's registry and move when a job
// simulates, but never in a run report.
func TestMemoCountersOnServiceRegistry(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	hits0 := svc.Registry().Snapshot().Value("cpu.memo.hits")
	misses0 := svc.Registry().Snapshot().Value("cpu.memo.misses")
	st := submitWait(t, svc, JobSpec{Workload: "ubench.tp_small", Variant: "mallacc", Calls: 3000, Seed: 11})
	snap := svc.Registry().Snapshot()
	if snap.Value("cpu.memo.hits") <= hits0 || snap.Value("cpu.memo.misses") <= misses0 {
		t.Fatalf("memo counters did not move: hits %v -> %v, misses %v -> %v",
			hits0, snap.Value("cpu.memo.hits"), misses0, snap.Value("cpu.memo.misses"))
	}
	if _, ok := snap.Get("cpu.memo.resets"); !ok {
		t.Fatal("cpu.memo.resets not registered")
	}
	if bytes.Contains(st.Report, []byte("cpu.memo")) {
		t.Fatal("a run report carries the process-wide memo counters")
	}
}

// TestCacheHitByteIdentity is the service's core promise: resubmitting an
// identical job returns the byte-identical report from the cache, without
// re-simulating, and the simsvc.cache.hits counter records it.
func TestCacheHitByteIdentity(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	spec := JobSpec{Workload: "ubench.gauss", Variant: "mallacc", Calls: 2000, Seed: 7}

	first := submitWait(t, svc, spec)
	if first.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	hits0 := svc.Registry().Snapshot().Value("simsvc.cache.hits")

	second := submitWait(t, svc, spec)
	if !second.Cached {
		t.Fatal("second submission should be served from cache")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatal("cached report is not byte-identical")
	}
	hits1 := svc.Registry().Snapshot().Value("simsvc.cache.hits")
	if hits1 != hits0+1 {
		t.Fatalf("simsvc.cache.hits went %v -> %v, want +1", hits0, hits1)
	}

	// Equivalent spelling (explicit defaults) hits the same entry.
	third := submitWait(t, svc, JobSpec{Kind: KindRun, Workload: "ubench.gauss",
		Variant: "mallacc", MCEntries: 32, Cores: 1, Calls: 2000, Seed: 7})
	if !third.Cached || third.Key != first.Key {
		t.Fatalf("equivalent spec missed the cache: cached=%v key=%s vs %s",
			third.Cached, third.Key, first.Key)
	}

	// The report is a valid harness.Report.
	var rep harness.Report
	if err := json.Unmarshal(first.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "run" || len(rep.Tables) == 0 {
		t.Fatalf("unexpected report shape: id=%q tables=%d", rep.ID, len(rep.Tables))
	}
}

// TestDiskCachePersistsAcrossServices restarts the service on the same
// cache directory and expects the second instance to answer from disk.
func TestDiskCachePersistsAcrossServices(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Workload: "ubench.tp_small", Calls: 2000, Seed: 3}

	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir})
	first := submitWait(t, svc1, spec)

	// The report landed on disk under its content address.
	if _, err := os.Stat(filepath.Join(dir, first.Key+".json")); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir})
	second := submitWait(t, svc2, spec)
	if !second.Cached {
		t.Fatal("fresh service should hit the disk cache")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatal("disk round trip changed the report bytes")
	}
	if svc2.Registry().Snapshot().Value("simsvc.cache.disk.hits") != 1 {
		t.Fatal("disk hit not counted")
	}
}

// TestRunLevelDedup submits fig13 and fig14, which share every underlying
// run; the second experiment must resolve entirely from the run-level
// cache (its runcache misses stay flat).
func TestRunLevelDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	svc := newTestService(t, Config{Workers: 1})
	submitWait(t, svc, JobSpec{Experiment: "fig13", Calls: 3000, Seeds: 2})
	snap := svc.Registry().Snapshot()
	misses0 := snap.Value("simsvc.runcache.misses")
	if misses0 == 0 {
		t.Fatal("fig13 should have populated the run cache")
	}

	submitWait(t, svc, JobSpec{Experiment: "fig14", Calls: 3000, Seeds: 2})
	snap = svc.Registry().Snapshot()
	if got := snap.Value("simsvc.runcache.misses"); got != misses0 {
		t.Fatalf("fig14 re-simulated: misses %v -> %v", misses0, got)
	}
	if snap.Value("simsvc.runcache.hits") == 0 {
		t.Fatal("fig14 recorded no run-cache hits")
	}
}

// TestSimKeyCoversConfig is the reflection guard: simKey must mirror every
// multicore.Config field by name, so adding a knob without teaching the
// run-level cache about it breaks this test instead of silently aliasing
// different runs. Single-core runs key by the config harness.Options
// lowers to, so the guard covers them too. CoreCalls is deliberately
// excluded: configs setting it are uncacheable (simKeyOf rejects them).
func TestSimKeyCoversConfig(t *testing.T) {
	excluded := map[string]bool{"CoreCalls": true}
	cfg := reflect.TypeOf(multicore.Config{})
	key := reflect.TypeOf(simKey{})
	keyFields := map[string]bool{}
	for i := 0; i < key.NumField(); i++ {
		keyFields[key.Field(i).Name] = true
	}
	covered := 0
	for i := 0; i < cfg.NumField(); i++ {
		name := cfg.Field(i).Name
		if excluded[name] {
			continue
		}
		covered++
		if !keyFields[name] {
			t.Errorf("multicore.Config.%s has no simKey counterpart — extend simKey and simKeyOf", name)
		}
	}
	if key.NumField() != covered {
		t.Errorf("simKey has %d fields, multicore.Config has %d cacheable — keep them in lockstep",
			key.NumField(), covered)
	}
}

// TestRunKeyNormalization: option values that simulate identically must
// share a key; values that don't must not.
func TestRunKeyNormalization(t *testing.T) {
	w, ok := workload.ByName("ubench.gauss")
	if !ok {
		t.Fatal("ubench.gauss missing")
	}
	base := harness.Options{Workload: w, Calls: 2000, Seed: 1}

	// Baseline ignores the malloc-cache size.
	a, ok := runKeyOf(base)
	if !ok {
		t.Fatal("stock workload should be keyable")
	}
	withEntries := base
	withEntries.MCEntries = 16
	if b, _ := runKeyOf(withEntries); a != b {
		t.Fatal("baseline runs with different MCEntries should share a key")
	}

	// Mallacc does not.
	m1, m2 := base, base
	m1.Variant, m2.Variant = multicore.Mallacc, multicore.Mallacc
	m2.MCEntries = 16
	k1, _ := runKeyOf(m1)
	k2, _ := runKeyOf(m2)
	if k1 == k2 {
		t.Fatal("mallacc runs with different MCEntries must differ")
	}

	// Defaults normalize: Calls 0 and Calls 50000 collide.
	d1, d2 := base, base
	d1.Calls, d2.Calls = 0, 50000
	k1, _ = runKeyOf(d1)
	k2, _ = runKeyOf(d2)
	if k1 != k2 {
		t.Fatal("unset call budget should hash like the harness default")
	}

	// Different seeds diverge.
	s2 := base
	s2.Seed = 2
	if k, _ := runKeyOf(s2); k == a {
		t.Fatal("seeds must separate keys")
	}

	// Custom workloads are not keyable.
	if _, ok := runKeyOf(harness.Options{Workload: customWorkload{}, Calls: 100}); ok {
		t.Fatal("custom workloads must bypass the run cache")
	}
}

// TestServiceMetricsRegistered pins the metric namespace the daemon
// exposes on /v1/metrics.
func TestServiceMetricsRegistered(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	snap := svc.Registry().Snapshot()
	for _, name := range []string{
		"simsvc.cache.hits", "simsvc.cache.misses", "simsvc.cache.disk.hits",
		"simsvc.cache.evictions", "simsvc.cache.entries", "simsvc.cache.quarantined",
		"simsvc.retries.attempts", "simsvc.retries.succeeded", "simsvc.retries.exhausted",
		"simsvc.breaker.state", "simsvc.breaker.opened", "simsvc.breaker.shed",
		"simsvc.jobs.submitted", "simsvc.jobs.completed", "simsvc.jobs.failed",
		"simsvc.jobs.canceled", "simsvc.jobs.rejected", "simsvc.jobs.panics",
		"simsvc.jobs.timeouts",
		"simsvc.workers", "simsvc.workers.busy", "simsvc.workers.utilization",
		"simsvc.queue.depth",
		"simsvc.job.queue_us", "simsvc.job.run_us",
		"simsvc.runcache.hits", "simsvc.runcache.misses",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
}

// TestExperimentCancelAbortsRuns cancels an experiment job mid-flight and
// expects it to land in canceled without counting a panic.
func TestExperimentCancelAbortsRuns(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	st, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 8000, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as it is running (or straight out of the queue).
	for {
		cur, err := svc.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := svc.Await(watchdog(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if svc.Registry().Snapshot().Value("simsvc.jobs.panics") != 0 {
		t.Fatal("cancellation sentinel was miscounted as a panic")
	}
}

// TestCacheLRUEviction fills a tiny cache past capacity.
func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // a is now most recent
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions.Load())
	}
}

// customWorkload is a non-stock workload for the keyability test.
type customWorkload struct{}

func (customWorkload) Name() string                                     { return "custom.notstock" }
func (customWorkload) Run(app workload.App, budget int, rng *stats.RNG) {}
