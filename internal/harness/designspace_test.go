package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mallacc/internal/catalog"
	"mallacc/internal/multicore"
	"mallacc/internal/workload"
)

// TestDesignSpaceDeterministic runs the design-space study at seed 1 twice
// and demands byte-identical reports — the same contract TestFig13Deterministic
// enforces, extended to every cataloged strategy. `make race` reruns this
// under the race detector.
func TestDesignSpaceDeterministic(t *testing.T) {
	render := func() []byte {
		rep := DesignSpace(ExpOptions{Calls: 1500, Seeds: 1, Seed: 1, Metrics: true, Cores: 4})
		b, err := rep.JSON()
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		return b
	}
	first := render()
	if second := render(); !bytes.Equal(first, second) {
		t.Fatal("designspace reports differ between identical seed-1 runs")
	}
	var decoded struct {
		Runs []struct {
			Name string `json:"name"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	// Every strategy must contribute telemetry at every visited width.
	want := len(catalog.Strategies()) * 3 // cores 1, 2, 4
	if len(decoded.Runs) != want {
		t.Fatalf("report carries %d runs, want %d", len(decoded.Runs), want)
	}
	for _, s := range catalog.Strategies() {
		found := false
		for _, r := range decoded.Runs {
			if strings.Contains(r.Name, "/"+s.Name+"/") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("strategy %q missing from report runs", s.Name)
		}
	}
}

// TestRunLockfreeBackend drives the single-core harness path on the
// lock-free backend for both supported variants.
func TestRunLockfreeBackend(t *testing.T) {
	w, _ := workload.ByName("ubench.gauss_free")
	for _, v := range []multicore.Variant{multicore.Baseline, multicore.Mallacc} {
		snap := func() *Result {
			return Run(Options{Workload: w, Backend: catalog.BackendLockFree, Variant: v, Calls: 5000, Seed: 1})
		}
		r := snap()
		if r.Backend != catalog.BackendLockFree {
			t.Fatalf("Result.Backend = %q", r.Backend)
		}
		if r.LockFree == nil || r.LockFree.Allocs == 0 {
			t.Fatalf("%v: no lock-free stats", v)
		}
		if r.MallocCalls == 0 || r.MallocHist.N() == 0 {
			t.Fatalf("%v: histograms not populated", v)
		}
		if len(r.ClassCounts) == 0 {
			t.Fatalf("%v: class counts not populated", v)
		}
		if r.OSBytes == 0 || r.PeakLiveBytes == 0 {
			t.Fatalf("%v: memory accounting empty", v)
		}
		if _, ok := r.Telemetry.Get("lockfree.allocs"); !ok {
			t.Fatalf("%v: lockfree.* telemetry missing", v)
		}
		if v == multicore.Mallacc {
			if r.MC == nil || r.MC.LookupHits == 0 {
				t.Fatal("mallacc: size-class cache never hit")
			}
		} else if r.MC != nil {
			t.Fatal("baseline grew an MC")
		}
		a, _ := json.Marshal(snap().Telemetry)
		b, _ := json.Marshal(snap().Telemetry)
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: lockfree run not deterministic", v)
		}
	}
}

// TestRunOffloadVariant drives the single-core harness path on the
// offload-core variant.
func TestRunOffloadVariant(t *testing.T) {
	w, _ := workload.ByName("ubench.gauss_free")
	r := Run(Options{Workload: w, Variant: multicore.Offload, Calls: 5000, Seed: 1})
	if r.Offload == nil || r.Offload.Mallocs == 0 {
		t.Fatal("no offload stats")
	}
	if r.Offload.Mallocs != r.MallocCalls || r.Offload.Frees != r.FreeCalls {
		t.Fatalf("engine saw %d/%d calls, requester issued %d/%d",
			r.Offload.Mallocs, r.Offload.Frees, r.MallocCalls, r.FreeCalls)
	}
	if r.FastMallocCalls != 0 {
		t.Fatal("offloaded mallocs counted as fast-path hits")
	}
	if r.Heap.Mallocs == 0 {
		t.Fatal("allocation core's heap stats not collected")
	}
	if _, ok := r.Telemetry.Get("offload.roundtrip_cycles"); !ok {
		t.Fatal("offload.* telemetry missing")
	}
	if _, ok := r.Telemetry.Get("alloccore.cpu.cycles"); !ok {
		t.Fatal("alloccore.* telemetry missing")
	}
	// Every malloc pays at least the two queue hops.
	if r.MeanMallocCycles() < 40 {
		t.Fatalf("offload malloc mean %.1f below the 2x send latency floor", r.MeanMallocCycles())
	}
}

// TestRunRejectsInvalidCombos: the harness enforces catalog combo rules.
func TestRunRejectsInvalidCombos(t *testing.T) {
	w, _ := workload.ByName("ubench.tp_small")
	for _, opt := range []Options{
		{Workload: w, Backend: catalog.BackendLockFree, Variant: multicore.Offload},
		{Workload: w, Backend: catalog.BackendLockFree, Variant: multicore.Limit},
		{Workload: w, Backend: "slab"},
		{Workload: w, Backend: catalog.BackendJemalloc},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%+v) did not panic", opt)
				}
			}()
			Run(opt)
		}()
	}
}
