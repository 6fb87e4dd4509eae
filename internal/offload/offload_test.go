package offload

import (
	"testing"

	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

func TestMallocRoundTrip(t *testing.T) {
	eng := New(DefaultConfig())
	e := uop.NewEmitter()
	e.Reset()
	p := eng.Malloc(e, 0, 64)
	if p == 0 {
		t.Fatal("Malloc returned 0")
	}
	if eng.Stats.Mallocs != 1 {
		t.Fatalf("Mallocs = %d", eng.Stats.Mallocs)
	}
	// Round trip = 2 hops + service; first request never waits.
	if eng.Stats.QueueWaitCycles != 0 {
		t.Fatalf("first request waited %d cycles", eng.Stats.QueueWaitCycles)
	}
	if eng.Stats.RoundTripCycles != 2*sendCycles+eng.Stats.ServiceCycles {
		t.Fatalf("roundtrip %d != 2*%d + service %d",
			eng.Stats.RoundTripCycles, sendCycles, eng.Stats.ServiceCycles)
	}
	if e.Len() == 0 {
		t.Fatal("requester trace is empty; the stall must ride the requester")
	}
	e.Reset()
	eng.Free(e, eng.Stats.RoundTripCycles, p, 64)
	if eng.Stats.Frees != 1 {
		t.Fatalf("Frees = %d", eng.Stats.Frees)
	}
}

// TestBackToBackQueues: a second request issued at the same requester
// cycle must wait for the first to finish on the single allocation core.
func TestBackToBackQueues(t *testing.T) {
	eng := New(DefaultConfig())
	e := uop.NewEmitter()
	e.Reset()
	eng.Malloc(e, 0, 64)
	waitBefore := eng.Stats.QueueWaitCycles
	e.Reset()
	eng.Malloc(e, 0, 64)
	if eng.Stats.QueueWaitCycles <= waitBefore {
		t.Fatalf("second simultaneous request did not queue (wait %d -> %d)",
			waitBefore, eng.Stats.QueueWaitCycles)
	}
	if eng.Stats.MaxDepth == 0 {
		t.Fatal("queue depth never observed above 0")
	}
	if eng.Stats.DepthSum == 0 {
		t.Fatal("no malloc arrival saw a queued request")
	}
}

// TestFreeIsFireAndForget: the requester-side cost of a free is a few
// marshal uops with no stall; the engine's horizon still advances.
func TestFreeIsFireAndForget(t *testing.T) {
	eng := New(DefaultConfig())
	e := uop.NewEmitter()
	e.Reset()
	p := eng.Malloc(e, 0, 64)
	mallocLen := e.Len()
	horizon := eng.freeAt
	e.Reset()
	eng.Free(e, 0, p, 64)
	if e.Len() >= mallocLen {
		t.Fatalf("free emitted %d uops, want fewer than malloc's %d (no stall)", e.Len(), mallocLen)
	}
	if eng.freeAt <= horizon {
		t.Fatal("allocation core horizon did not advance on free")
	}
}

// TestDeterministic: identical call sequences produce identical stats and
// identical requester traces.
func TestDeterministic(t *testing.T) {
	run := func() (Stats, int) {
		eng := New(DefaultConfig())
		e := uop.NewEmitter()
		type block struct{ ptr, size uint64 }
		var total int
		var now uint64
		var live []block
		for i := 0; i < 200; i++ {
			e.Reset()
			if i%3 == 2 && len(live) > 0 {
				eng.Free(e, now, live[0].ptr, live[0].size)
				live = live[1:]
			} else {
				size := uint64(8 + (i%50)*16)
				live = append(live, block{eng.Malloc(e, now, size), size})
			}
			total += e.Len()
			now += 100
		}
		return eng.Stats, total
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 || l1 != l2 {
		t.Fatalf("nondeterministic: %+v/%d vs %+v/%d", s1, l1, s2, l2)
	}
}

func TestLightCoreIsNarrow(t *testing.T) {
	cfg := LightCoreConfig()
	if cfg.IssueWidth >= 8 || cfg.ROBSize >= 192 {
		t.Fatalf("allocation core is not lightweight: %+v", cfg)
	}
	eng := New(DefaultConfig())
	if eng.Heap.MC != nil {
		t.Fatal("offload heap must run baseline tcmalloc (no in-core accelerator)")
	}
}

func TestRegisterMetricsNamespace(t *testing.T) {
	eng := New(DefaultConfig())
	e := uop.NewEmitter()
	e.Reset()
	p := eng.Malloc(e, 0, 64)
	e.Reset()
	eng.Free(e, 50, p, 64)
	reg := telemetry.NewRegistry()
	eng.RegisterMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"offload.mallocs", "offload.frees", "offload.queue.wait_cycles",
		"offload.service_cycles", "offload.roundtrip_cycles",
		"offload.queue.mean_depth", "offload.queue.max_depth",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
	for _, name := range []string{"offload.mallocs", "offload.queue.mean_depth"} {
		if m, _ := snap.Get(name); m.Help == "" {
			t.Errorf("metric %q has no Describe help", name)
		}
	}
	if err := telemetry.LintOpenMetrics(telemetry.OpenMetrics(snap)); err != nil {
		t.Fatalf("offload namespace fails OpenMetrics lint: %v", err)
	}
}

// BenchmarkOffloadRoundTrip measures one dispatched malloc/free pair —
// requester marshal + allocation-core service on logical clocks.
func BenchmarkOffloadRoundTrip(b *testing.B) {
	eng := New(DefaultConfig())
	e := uop.NewEmitter()
	// Warm the allocation core's thread cache.
	e.Reset()
	p := eng.Malloc(e, 0, 64)
	e.Reset()
	eng.Free(e, 100, p, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		e.Reset()
		a := eng.Malloc(e, now, 64)
		e.Reset()
		eng.Free(e, now+500, a, 64)
		now += 1000
	}
}
