package harness

import (
	"testing"

	"mallacc/internal/multicore"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

func TestRunVariantsOnKeyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	names := []string{"ubench.tp_small", "ubench.antagonist", "xapian.pages", "483.xalancbmk", "masstree.same", "400.perlbench"}
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		base := Run(Options{Workload: w, Variant: multicore.Baseline, Calls: 20000, Seed: 3})
		mall := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 20000, Seed: 3})
		lim := Run(Options{Workload: w, Variant: multicore.Limit, Calls: 20000, Seed: 3})
		impAll := 100 * (1 - float64(mall.AllocatorCycles())/float64(base.AllocatorCycles()))
		impLim := 100 * (1 - float64(lim.AllocatorCycles())/float64(base.AllocatorCycles()))
		impM := 100 * (1 - float64(mall.MallocCycles)/float64(base.MallocCycles))
		t.Logf("%-18s alloc-frac=%5.1f%% fast-malloc base=%5.1f mall=%5.1f | alloc-time imp: mallacc=%5.1f%% limit=%5.1f%% | malloc-time imp=%5.1f%%",
			name, 100*base.AllocatorFraction(), base.MeanFastMallocCycles(), mall.MeanFastMallocCycles(), impAll, impLim, impM)
		if impAll <= -5 {
			t.Errorf("%s: Mallacc slowed the allocator down by %.1f%%", name, -impAll)
		}
		if base.MallocCalls == 0 || base.TotalCycles == 0 {
			t.Errorf("%s: empty run", name)
		}
	}
}

// TestRunTelemetrySnapshot checks that every run carries the full registry
// snapshot, including per-step cycle attribution, for all three variants.
func TestRunTelemetrySnapshot(t *testing.T) {
	w, _ := workload.ByName("ubench.tp_small")
	for _, v := range []multicore.Variant{multicore.Baseline, multicore.Mallacc, multicore.Limit} {
		r := Run(Options{Workload: w, Variant: v, Calls: 4000, Seed: 1})
		for _, name := range []string{"step.sizeclass.cycles", "step.pushpop.cycles", "step.sampling.cycles",
			"cpu.cycles", "l1d.misses", "heap.mallocs", "pageheap.spans.split"} {
			if _, ok := r.Telemetry.Get(name); !ok {
				t.Errorf("%s: metric %s missing from snapshot", v, name)
			}
		}
		if got := r.Telemetry.Value("cpu.cycles"); got != float64(r.CPU.Cycles) {
			t.Errorf("%s: cpu.cycles = %v, want %d", v, got, r.CPU.Cycles)
		}
		if v == multicore.Baseline {
			if r.Telemetry.Value("step.sizeclass.cycles") == 0 {
				t.Errorf("baseline: step.sizeclass.cycles should be nonzero")
			}
			if r.Telemetry.Value("step.sampling.cycles") == 0 {
				t.Errorf("baseline: step.sampling.cycles should be nonzero")
			}
		}
		if v == multicore.Mallacc {
			if _, ok := r.Telemetry.Get("mc.pop.hits"); !ok {
				t.Errorf("mallacc: mc.pop.hits missing")
			}
		}
		// Per-call attribution sums match the aggregate stats.
		var sum uint64
		for i := range r.CPU.StepCycles {
			sum += r.CPU.StepCycles[i]
		}
		var snapSum float64
		for _, n := range uop.StepNames() {
			snapSum += r.Telemetry.Value("step." + n + ".cycles")
		}
		if snapSum != float64(sum) {
			t.Errorf("%s: snapshot step cycles %v != cpu.Stats %d", v, snapSum, sum)
		}
	}
}
