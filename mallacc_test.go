package mallacc_test

import (
	"bytes"
	"testing"

	"mallacc"
)

func TestSystemDeterministicAndFunctional(t *testing.T) {
	cfg := mallacc.DefaultConfig()
	a := mallacc.NewSystem(cfg)
	b := mallacc.NewSystem(cfg)
	for i := 0; i < 500; i++ {
		size := uint64(16 + (i%20)*24)
		addrA, cycA := a.Malloc(size)
		addrB, cycB := b.Malloc(size)
		if addrA != addrB || cycA != cycB {
			t.Fatalf("identical systems diverged at call %d: (%#x,%d) vs (%#x,%d)",
				i, addrA, cycA, addrB, cycB)
		}
		if i%2 == 0 {
			if a.Free(addrA, size) != b.Free(addrB, size) {
				t.Fatalf("free cycles diverged at call %d", i)
			}
		}
	}
	a.CheckInvariants()
	b.CheckInvariants()
}

func TestSystemBaselineVsMallaccLatency(t *testing.T) {
	run := func(v mallacc.Variant) float64 {
		cfg := mallacc.DefaultConfig()
		cfg.Variant = v
		cfg.SampleInterval = 0
		s := mallacc.NewSystem(cfg)
		var warm []uint64
		for i := 0; i < 32; i++ {
			a, _ := s.Malloc(64)
			warm = append(warm, a)
		}
		for _, a := range warm {
			s.Free(a, 64)
		}
		var tot uint64
		for i := 0; i < 500; i++ {
			a, c := s.Malloc(64)
			tot += c
			s.Free(a, 64)
		}
		return float64(tot) / 500
	}
	base, acc := run(mallacc.Baseline), run(mallacc.Mallacc)
	if acc >= base {
		t.Fatalf("Mallacc (%.1f) not faster than baseline (%.1f)", acc, base)
	}
	t.Logf("baseline %.1f cycles, mallacc %.1f cycles", base, acc)
}

func TestRunContextSwitchFlushesMallocCache(t *testing.T) {
	w, _ := mallacc.WorkloadByName("ubench.tp_small")
	opt := mallacc.RunOptions{Workload: w, Variant: mallacc.Mallacc, Calls: 2000, Seed: 1}
	opt.Threads, opt.SwitchEvery = 2, 100
	r := mallacc.Run(opt)
	if r.ContextSwitches == 0 {
		t.Fatal("no context switches injected")
	}
	if r.MC.Flushes != r.ContextSwitches {
		t.Fatalf("%d malloc-cache flushes for %d context switches", r.MC.Flushes, r.ContextSwitches)
	}
}

func TestSizeClassesAPI(t *testing.T) {
	classes := mallacc.SizeClasses()
	if len(classes) < 60 {
		t.Fatalf("only %d size classes", len(classes))
	}
	if classes[0].Size != 16 {
		t.Errorf("first class size %d, want 16", classes[0].Size)
	}
	if classes[len(classes)-1].Size != 256<<10 {
		t.Errorf("last class size %d, want 256KB", classes[len(classes)-1].Size)
	}
	info, ok := mallacc.SizeClassOf(100)
	if !ok || info.Size < 100 {
		t.Fatalf("SizeClassOf(100): %+v ok=%v", info, ok)
	}
	if _, ok := mallacc.SizeClassOf(1 << 20); ok {
		t.Error("1MB should not have a small class")
	}
	if mallacc.ClassIndex(1024) != 128 {
		t.Error("ClassIndex(1024) != 128")
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if _, err := mallacc.RunExperiment("nope", mallacc.ExpOptions{}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
	rep, err := mallacc.RunExperiment("area", mallacc.ExpOptions{})
	if err != nil || rep == nil || len(rep.Lines) == 0 {
		t.Fatalf("area experiment failed: %v", err)
	}
}

func TestWorkloadRegistryViaFacade(t *testing.T) {
	if len(mallacc.Workloads()) != 15 {
		t.Fatalf("%d workloads, want 15", len(mallacc.Workloads()))
	}
	if _, ok := mallacc.WorkloadByName("xapian.pages"); !ok {
		t.Fatal("xapian.pages missing")
	}
	if _, ok := mallacc.WorkloadByName("server.requests"); !ok {
		t.Fatal("server.requests missing")
	}
}

func TestCustomWorkloadThroughFacade(t *testing.T) {
	w := mallacc.NewWorkload(mallacc.WorkloadConfig{
		WName:    "test.custom",
		Mix:      []mallacc.SizeWeight{{Size: 64, Weight: 1}},
		FreeProb: 1, MaxLive: 100, Sized: true,
		WorkCyclesMin: 10, WorkCyclesMax: 20,
	})
	r := mallacc.Run(mallacc.RunOptions{Workload: w, Variant: mallacc.Mallacc, Calls: 2000, Seed: 1})
	if r.MallocCalls == 0 {
		t.Fatal("custom workload issued nothing")
	}
	if r.MC.LookupHitRate() < 0.95 {
		t.Errorf("single-class workload lookup hit rate %.2f", r.MC.LookupHitRate())
	}
}

func TestAreaEstimateFacade(t *testing.T) {
	e := mallacc.AreaEstimate(16)
	if e.Total() > 1500 || e.Total() < 1200 {
		t.Fatalf("16-entry area %.0f um2", e.Total())
	}
}

func TestLimitVariantFasterThanMallacc(t *testing.T) {
	w, _ := mallacc.WorkloadByName("ubench.tp_small")
	base := mallacc.Run(mallacc.RunOptions{Workload: w, Variant: mallacc.Baseline, Calls: 5000, Seed: 3})
	acc := mallacc.Run(mallacc.RunOptions{Workload: w, Variant: mallacc.Mallacc, Calls: 5000, Seed: 3})
	lim := mallacc.Run(mallacc.RunOptions{Workload: w, Variant: mallacc.Limit, Calls: 5000, Seed: 3})
	if !(lim.MallocCycles < acc.MallocCycles && acc.MallocCycles < base.MallocCycles) {
		t.Fatalf("ordering violated: base=%d acc=%d lim=%d",
			base.MallocCycles, acc.MallocCycles, lim.MallocCycles)
	}
}

func TestJemallocSystemThroughFacade(t *testing.T) {
	run := func(v mallacc.Variant) float64 {
		cfg := mallacc.DefaultConfig()
		cfg.Allocator = mallacc.Jemalloc
		cfg.Variant = v
		cfg.SampleInterval = 0
		s := mallacc.NewSystem(cfg)
		var warm []uint64
		for i := 0; i < 48; i++ {
			a, _ := s.Malloc(96)
			warm = append(warm, a)
		}
		for _, a := range warm {
			s.Free(a, 96)
		}
		var tot uint64
		for i := 0; i < 500; i++ {
			a, c := s.Malloc(96)
			tot += c
			s.Free(a, 96)
		}
		s.CheckInvariants()
		return float64(tot) / 500
	}
	base, acc := run(mallacc.Baseline), run(mallacc.Mallacc)
	if acc >= base {
		t.Fatalf("jemalloc substrate: no speedup (%.1f vs %.1f)", acc, base)
	}
	t.Logf("jemalloc via facade: baseline %.1f, mallacc %.1f cycles", base, acc)
}

func TestSystemCallocRealloc(t *testing.T) {
	s := mallacc.NewSystem(mallacc.DefaultConfig())
	a, cyc := s.Calloc(256)
	if a == 0 || cyc == 0 {
		t.Fatal("calloc failed")
	}
	b, _ := s.Realloc(a, 256, 300)
	if b == 0 {
		t.Fatal("realloc failed")
	}
	s.Free(b, 300)
	s.CheckInvariants()
	// The jemalloc substrate refuses these (documented).
	jcfg := mallacc.DefaultConfig()
	jcfg.Allocator = mallacc.Jemalloc
	js := mallacc.NewSystem(jcfg)
	defer func() {
		if recover() == nil {
			t.Fatal("jemalloc Calloc should panic")
		}
	}()
	js.Calloc(64)
}

func TestRecordReplayDeterministicCycles(t *testing.T) {
	w, _ := mallacc.WorkloadByName("ubench.tp_small")
	tr := mallacc.RecordTrace(w, 3000, 1)
	// Replaying the trace must give the exact per-run cycle totals of
	// running the generator directly with the same seed.
	direct := mallacc.Run(mallacc.RunOptions{Workload: w, Variant: mallacc.Mallacc, Calls: 3000, Seed: 1})
	replay := mallacc.Run(mallacc.RunOptions{Workload: tr, Variant: mallacc.Mallacc, Calls: 3000, Seed: 1})
	if direct.MallocCycles != replay.MallocCycles || direct.FreeCycles != replay.FreeCycles {
		t.Fatalf("replay diverged: %d/%d vs %d/%d",
			replay.MallocCycles, replay.FreeCycles, direct.MallocCycles, direct.FreeCycles)
	}
	// And serialization round-trips through the facade.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := mallacc.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again := mallacc.Run(mallacc.RunOptions{Workload: back, Variant: mallacc.Mallacc, Calls: 3000, Seed: 1})
	if again.MallocCycles != direct.MallocCycles {
		t.Fatalf("serialized replay diverged: %d vs %d", again.MallocCycles, direct.MallocCycles)
	}
}

func TestHoardSystemThroughFacade(t *testing.T) {
	cfg := mallacc.DefaultConfig()
	cfg.Allocator = mallacc.Hoard
	cfg.SampleInterval = 0
	s := mallacc.NewSystem(cfg)
	var addrs []uint64
	for i := 0; i < 200; i++ {
		a, c := s.Malloc(96)
		if a == 0 || c == 0 {
			t.Fatal("hoard malloc failed")
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		s.Free(a, 0)
	}
	s.CheckInvariants()
	if s.MallocCacheStats().Updates == 0 {
		t.Error("hoard system never touched the malloc cache")
	}
}

func TestSystemTelemetry(t *testing.T) {
	s := mallacc.NewSystem(mallacc.DefaultConfig())
	for i := 0; i < 200; i++ {
		a, _ := s.Malloc(64)
		s.Free(a, 64)
	}
	snap := s.Telemetry()
	hits := s.MallocCacheStats().LookupHits
	if hits == 0 || snap.Value("mc.lookup.hits") != float64(hits) {
		t.Fatalf("mc.lookup.hits = %v, MallocCacheStats says %d", snap.Value("mc.lookup.hits"), hits)
	}
	if snap.Value("step.pushpop.uops") == 0 {
		t.Fatal("no step attribution for the push/pop step")
	}
}
