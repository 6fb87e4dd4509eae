package multicore

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"mallacc/internal/workload"
)

func wl(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not found", name)
	}
	return w
}

func snapshotJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r.Telemetry)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return b
}

// TestDeterminism is the acceptance-criteria regression: the same seed and
// core count must produce byte-identical telemetry snapshots across runs.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Cores:        4,
		Variant:      Mallacc,
		Workload:     wl(t, "ubench.gauss_free"),
		CallsPerCore: 3000,
		Seed:         1,
	}
	a := snapshotJSON(t, Run(cfg))
	b := snapshotJSON(t, Run(cfg))
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry snapshots differ between identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestEarlyDrainNoDeadlock guards the scheduler against the lost-token
// hazard: one core's shard finishes epochs before the others, and the
// rotation must keep cycling through the survivors. A watchdog converts a
// hang into a test failure instead of a suite timeout.
func TestEarlyDrainNoDeadlock(t *testing.T) {
	done := make(chan *Result, 1)
	go func() {
		done <- Run(Config{
			Cores:        4,
			Variant:      Baseline,
			Workload:     wl(t, "ubench.tp_small"),
			CallsPerCore: 4000,
			CoreCalls:    []int{60, 4000, 4000, 4000},
			Seed:         3,
		})
	}()
	select {
	case r := <-done:
		if r.PerCore[0].MallocCalls+r.PerCore[0].FreeCalls >= r.PerCore[1].MallocCalls+r.PerCore[1].FreeCalls {
			t.Fatalf("core 0 was not drained early: %+v vs %+v", r.PerCore[0], r.PerCore[1])
		}
		if r.PerCore[0].DoneEpoch > r.PerCore[1].DoneEpoch {
			t.Fatalf("core 0 retired after core 1 despite the tiny budget")
		}
	case <-time.After(120 * time.Second):
		t.Fatal("engine deadlocked after a core drained early")
	}
}

// TestContentionScalesWithCores checks the spinlock model's defining shape:
// one core sees no central-lock contention at all, and contention cycles
// per allocator call grow with the core count.
func TestContentionScalesWithCores(t *testing.T) {
	perCall := map[int]float64{}
	for _, cores := range []int{1, 2, 8} {
		r := Run(Config{
			Cores:        cores,
			Variant:      Baseline,
			Workload:     wl(t, "ubench.gauss_free"),
			CallsPerCore: 3000,
			Seed:         1,
		})
		perCall[cores] = r.LockCyclesPerCall()
		if cores == 1 && r.CentralLock.Cycles() != 0 {
			t.Errorf("single-core run charged %d central-lock cycles; want 0", r.CentralLock.Cycles())
		}
	}
	if perCall[2] <= perCall[1] {
		t.Errorf("lock cycles/call did not grow 1->2 cores: %v", perCall)
	}
	if perCall[8] <= perCall[2] {
		t.Errorf("lock cycles/call did not grow 2->8 cores: %v", perCall)
	}
}

// TestRemoteFreeTraffic verifies the producer/consumer path: cross-core
// frees actually execute on the consumer and all memory is accounted for
// (collect runs heap.CheckInvariants).
func TestRemoteFreeTraffic(t *testing.T) {
	r := Run(Config{
		Cores:        4,
		Variant:      Mallacc,
		Workload:     wl(t, "ubench.tp_small"),
		CallsPerCore: 3000,
		Seed:         2,
	})
	if r.RemoteFrees == 0 {
		t.Fatal("no remote frees were drained")
	}
	var posted, drained uint64
	for _, c := range r.PerCore {
		posted += c.RemotePosted
		drained += c.RemoteDrained
	}
	if posted != drained {
		t.Fatalf("remote frees lost: posted %d, drained %d", posted, drained)
	}
	if v := r.Telemetry.Value("agg.remote.drained"); uint64(v) != drained {
		t.Errorf("telemetry agg.remote.drained = %v, want %d", v, drained)
	}
	if r.Epochs == 0 {
		t.Error("engine never advanced an epoch")
	}
}

// TestMallaccHitRateStableAcrossCores checks the paper-facing claim of the
// scale study: per-core malloc caches keep their hit rates as the machine
// widens, because each core's cache only ever serves its own thread cache.
func TestMallaccHitRateStableAcrossCores(t *testing.T) {
	rate := map[int]float64{}
	for _, cores := range []int{1, 4} {
		r := Run(Config{
			Cores:        cores,
			Variant:      Mallacc,
			Workload:     wl(t, "ubench.gauss_free"),
			CallsPerCore: 4000,
			Seed:         1,
		})
		rate[cores] = r.MCLookupHitRate()
		if r.MC == nil {
			t.Fatal("mallacc run returned no MC stats")
		}
	}
	if math.Abs(rate[1]-rate[4]) > 0.05 {
		t.Errorf("mc lookup hit rate drifted across cores: 1-core %.3f vs 4-core %.3f", rate[1], rate[4])
	}
}

// TestVariantString pins the labels reports are keyed by.
func TestVariantString(t *testing.T) {
	if Baseline.String() != "baseline" || Mallacc.String() != "mallacc" || Limit.String() != "limit" {
		t.Fatal("variant labels changed")
	}
}

// TestMemoReuseDeterminism runs engines of three cpu Configs (baseline,
// limit with dropped steps, mallacc) concurrently, twice over, so that
// each engine takes a schedule memo another engine of the same or of a
// different Config returned to the free list: every snapshot must equal
// the one the same config gave when run alone, and none may carry the
// process-wide memo counters.
func TestMemoReuseDeterminism(t *testing.T) {
	var cfgs []Config
	for _, v := range []Variant{Baseline, Limit, Mallacc} {
		cfgs = append(cfgs, Config{Cores: 2, Variant: v, Workload: wl(t, "ubench.tp_small"), CallsPerCore: 1500, Seed: 3})
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = snapshotJSON(t, Run(cfg))
		if bytes.Contains(want[i], []byte("cpu.memo")) {
			t.Fatal("a run's telemetry carries the process-wide memo counters")
		}
	}
	hits := memoHits.Load()
	got := make([][]byte, 2*len(cfgs))
	done := make(chan struct{})
	for i := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			b, err := json.Marshal(Run(cfgs[i%len(cfgs)]).Telemetry)
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}()
	}
	for range got {
		<-done
	}
	for i, b := range got {
		if !bytes.Equal(b, want[i%len(cfgs)]) {
			t.Fatalf("run %d (variant %v) differs from its solo run", i, cfgs[i%len(cfgs)].Variant)
		}
	}
	if memoHits.Load() == hits {
		t.Fatal("no engine's memo served a call")
	}
}
