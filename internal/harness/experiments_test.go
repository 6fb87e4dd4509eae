package harness

import (
	"strconv"
	"strings"
	"testing"

	"mallacc/internal/catalog"
	"mallacc/internal/multicore"
	"mallacc/internal/workload"
)

var tinyOpt = ExpOptions{Calls: 4000, Seeds: 2, Seed: 1}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID found a ghost experiment")
	}
	want := []string{"fig1", "fig2", "table1", "fig4", "fig6", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "table2", "area", "ablation", "crossalloc", "ctxswitch", "frag", "buddy", "scale", "designspace"}
	if len(Experiments()) != len(want) {
		t.Fatalf("%d experiments, want %d", len(Experiments()), len(want))
	}
	for i, e := range Experiments() {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(tinyOpt)
			if rep.ID != e.ID {
				t.Errorf("report ID %s", rep.ID)
			}
			if len(rep.Lines) < 2 {
				t.Errorf("%s produced %d lines", e.ID, len(rep.Lines))
			}
			if !strings.Contains(rep.String(), rep.Title) {
				t.Errorf("%s: String() missing title", e.ID)
			}
		})
	}
}

// percentIn extracts the idx-th percentage (in order) from a line.
func percentIn(t *testing.T, line string, idx int) float64 {
	t.Helper()
	n := 0
	for _, f := range strings.Fields(line) {
		if strings.HasSuffix(f, "%") {
			if n == idx {
				v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
				if err != nil {
					t.Fatalf("bad percent %q in %q", f, line)
				}
				return v
			}
			n++
		}
	}
	t.Fatalf("no percent #%d in %q", idx, line)
	return 0
}

func findLine(t *testing.T, rep *Report, prefix string) string {
	t.Helper()
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("%s: no line starting with %q", rep.ID, prefix)
	return ""
}

// TestFigure13Shape asserts the headline result: Mallacc improves
// allocator time on every workload, the limit study bounds it from above,
// and masstree benefits least (Sec. 6.1).
func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Figure13(ExpOptions{Calls: 12000, Seed: 1})
	var masstree, geomean float64
	for _, w := range workload.Macro() {
		line := findLine(t, rep, w.Name())
		mall := percentIn(t, line, 0)
		lim := percentIn(t, line, 1)
		if mall <= 0 {
			t.Errorf("%s: Mallacc slowdown %.1f%%", w.Name(), mall)
		}
		if lim < mall-3 {
			t.Errorf("%s: limit (%.1f%%) below Mallacc (%.1f%%)", w.Name(), lim, mall)
		}
		if w.Name() == "masstree.same" {
			masstree = mall
		}
	}
	geomean = percentIn(t, findLine(t, rep, "Geomean"), 0)
	if geomean < 10 || geomean > 45 {
		t.Errorf("geomean allocator improvement %.1f%% out of the plausible band", geomean)
	}
	if masstree > geomean {
		t.Errorf("masstree.same (%.1f%%) should be below the mean (%.1f%%)", masstree, geomean)
	}
}

// TestFigure17Shape asserts the cache-size story: tiny caches hurt,
// adequate ones help, and tp needs its full 24+ classes.
func TestFigure17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Figure17(ExpOptions{Calls: 10000, Seed: 1})
	tpSmall := findLine(t, rep, "ubench.tp_small")
	if v := percentIn(t, tpSmall, 0); v >= 0 { // 2 entries
		t.Errorf("tp_small with 2 entries should slow down, got %.1f%%", v)
	}
	if v := percentIn(t, tpSmall, 1); v <= 10 { // 4 entries
		t.Errorf("tp_small with 4 entries should speed up, got %.1f%%", v)
	}
	tp := findLine(t, rep, "ubench.tp ")
	if v := percentIn(t, tp, 4); v >= 0 { // 12 entries: still thrashing
		t.Errorf("tp with 12 entries should slow down, got %.1f%%", v)
	}
	if v := percentIn(t, tp, 9); v <= 0 { // 32 entries
		t.Errorf("tp with 32 entries should speed up, got %.1f%%", v)
	}
}

// TestFigure2Shape asserts the fast-path-time story of Sec. 3.2.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Figure2(ExpOptions{Calls: 10000, Seed: 1})
	under100 := func(name string) float64 {
		return percentIn(t, findLine(t, rep, name), 1)
	}
	for _, name := range []string{"400.perlbench", "xapian.abstracts", "xapian.pages"} {
		if v := under100(name); v < 60 {
			t.Errorf("%s: %.1f%% of malloc time under 100 cycles, paper says >60%%", name, v)
		}
	}
	if v := under100("masstree.same"); v > 60 {
		t.Errorf("masstree.same: %.1f%% under 100 cycles — should be slow-path dominated", v)
	}
}

// TestTable1Error asserts the detailed model stays close to the analytic
// reference (the paper's own validation achieved 6.28% against hardware).
func TestTable1Error(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Table1(ExpOptions{Calls: 10000, Seed: 1})
	avg := percentIn(t, findLine(t, rep, "Average"), 0)
	if avg > 15 {
		t.Errorf("mean validation error %.1f%%, want <15%%", avg)
	}
}

// TestTable2Significance asserts every workload shows a statistically
// significant full-program speedup in the deterministic simulator.
func TestTable2Significance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Table2(ExpOptions{Calls: 8000, Seeds: 3, Seed: 1})
	for _, w := range workload.Macro() {
		line := findLine(t, rep, w.Name())
		if !strings.Contains(line, "true") {
			t.Errorf("%s: speedup not significant: %s", w.Name(), line)
		}
		speedup := percentIn(t, line, 0)
		if speedup <= 0 || speedup > 5 {
			t.Errorf("%s: full-program speedup %.2f%% implausible", w.Name(), speedup)
		}
	}
}

func TestResultMetrics(t *testing.T) {
	w, _ := workload.ByName("ubench.tp_small")
	r := Run(Options{Workload: w, Variant: multicore.Baseline, Calls: 3000, Seed: 2})
	if r.AllocatorFraction() <= 0 || r.AllocatorFraction() > 1 {
		t.Errorf("allocator fraction %v", r.AllocatorFraction())
	}
	if r.MallocCalls == 0 || r.FreeCalls == 0 {
		t.Error("no calls recorded")
	}
	if r.MeanMallocCycles() <= 0 || r.MeanFastMallocCycles() <= 0 {
		t.Error("zero latencies")
	}
	if r.MallocHist.N() != r.MallocCalls {
		t.Error("histogram disagrees with counters")
	}
	if r.MC != nil {
		t.Error("baseline run has accelerator stats")
	}
	m := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 3000, Seed: 2})
	if m.MC == nil {
		t.Error("mallacc run missing accelerator stats")
	}
}

func TestRunDeterminism(t *testing.T) {
	w, _ := workload.ByName("ubench.gauss_free")
	a := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 4000, Seed: 9})
	b := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 4000, Seed: 9})
	if a.TotalCycles != b.TotalCycles || a.MallocCycles != b.MallocCycles {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.TotalCycles, a.MallocCycles, b.TotalCycles, b.MallocCycles)
	}
	c := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 4000, Seed: 10})
	if c.TotalCycles == a.TotalCycles {
		t.Error("different seeds produced identical totals (suspicious)")
	}
}

func TestVariantString(t *testing.T) {
	if multicore.Baseline.String() != "baseline" || multicore.Mallacc.String() != "mallacc" || multicore.Limit.String() != "limit" {
		t.Error("variant names wrong")
	}
}

// TestAblationShape asserts the component ablation's key orderings: each
// half of the malloc cache contributes less alone than combined; removing
// Next-slot caching hurts cache-pressured workloads; removing the blocking
// rule helps tp.
func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep := Ablation(ExpOptions{Calls: 12000, Seed: 1})
	imp := func(cfg string, col int) float64 {
		return percentIn(t, findLine(t, rep, cfg), col)
	}
	const (
		colTPSmall = 0
		colTP      = 1
		colAntag   = 2
	)
	full := imp("full design", colAntag)
	szOnly := imp("size cache only", colAntag)
	listOnly := imp("list cache only", colAntag)
	if szOnly >= full || listOnly >= full {
		t.Errorf("components alone (%.1f%%, %.1f%%) should be below the full design (%.1f%%)", szOnly, listOnly, full)
	}
	if headOnly := imp("head-only (no Next slot)", colAntag); headOnly >= full {
		t.Errorf("head-only (%.1f%%) should be below full (%.1f%%) under cache pressure", headOnly, full)
	}
	if swSamp := imp("software sampling", colAntag); swSamp >= full-2 {
		t.Errorf("software sampling (%.1f%%) should cost noticeably vs full (%.1f%%) under antagonism", swSamp, full)
	}
	if noBlock := imp("no prefetch blocking (unsafe)", colTP); noBlock <= imp("full design", colTP) {
		t.Errorf("removing blocking should help tp: %.1f%% vs %.1f%%", noBlock, imp("full design", colTP))
	}
}

func TestMultithreadedRunWithSwitches(t *testing.T) {
	w, _ := workload.ByName("ubench.gauss_free")
	r := Run(Options{
		Workload: w, Variant: multicore.Mallacc, Calls: 6000, Seed: 2,
		CoreConfig: multicore.CoreConfig{Threads: 4, SwitchEvery: 500},
	})
	if r.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
	if r.MC.Flushes != r.ContextSwitches {
		t.Fatalf("flushes %d != switches %d", r.MC.Flushes, r.ContextSwitches)
	}
	if r.MallocCalls == 0 {
		t.Fatal("empty run")
	}
	// Cross-thread frees must have pushed memory through the central
	// lists.
	if r.Heap.CentralFetches == 0 {
		t.Error("multithreaded churn never touched the central lists")
	}
}

// TestLockfreeSwitchFlushesMallocCache: a context switch flushes the
// core's malloc cache on the lock-free backend too (Sec. 4.1), not only on
// TCMalloc.
func TestLockfreeSwitchFlushesMallocCache(t *testing.T) {
	w, _ := workload.ByName("ubench.gauss_free")
	r := Run(Options{
		Workload: w, Backend: catalog.BackendLockFree, Variant: multicore.Mallacc, Calls: 6000, Seed: 2,
		CoreConfig: multicore.CoreConfig{Threads: 4, SwitchEvery: 500},
	})
	if r.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
	if r.MC.Flushes != r.ContextSwitches {
		t.Fatalf("flushes %d != switches %d", r.MC.Flushes, r.ContextSwitches)
	}
}

func TestFragAccountingPlacementNeutral(t *testing.T) {
	w, _ := workload.ByName("471.omnetpp")
	base := Run(Options{Workload: w, Variant: multicore.Baseline, Calls: 6000, Seed: 3})
	mall := Run(Options{Workload: w, Variant: multicore.Mallacc, Calls: 6000, Seed: 3})
	if base.OSBytes != mall.OSBytes || base.PeakLiveBytes != mall.PeakLiveBytes {
		t.Fatalf("Mallacc changed placement: %d/%d vs %d/%d",
			mall.OSBytes, mall.PeakLiveBytes, base.OSBytes, base.PeakLiveBytes)
	}
	if base.OSBytes == 0 || base.PeakLiveBytes == 0 {
		t.Fatal("memory accounting empty")
	}
	if base.OSBytes < base.PeakLiveBytes {
		t.Fatal("OS bytes below peak live: accounting broken")
	}
}
