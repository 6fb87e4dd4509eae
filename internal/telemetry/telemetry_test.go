package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestRatioAndRate(t *testing.T) {
	if Ratio(0, 0) != 0 {
		t.Error("Ratio(0,0) != 0")
	}
	if got := Ratio(3, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Ratio(3,1) = %v", got)
	}
	if Rate(5, 0) != 0 {
		t.Error("Rate(x,0) != 0")
	}
	if got := Rate(6, 4); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Rate(6,4) = %v", got)
	}
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	reg := NewRegistry()
	var hits uint64 = 7
	reg.Counter("mc.pop.hits", func() uint64 { return hits })
	reg.Gauge("mc.pop.hit_rate", func() float64 { return 0.5 })
	s := reg.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("got %d metrics", len(s.Metrics))
	}
	if !sort.SliceIsSorted(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name }) {
		t.Error("snapshot not sorted")
	}
	m, ok := s.Get("mc.pop.hits")
	if !ok || m.Kind != KindCounter || m.Value != 7 {
		t.Errorf("counter wrong: %+v ok=%v", m, ok)
	}
	if v := s.Value("mc.pop.hit_rate"); v != 0.5 {
		t.Errorf("gauge = %v", v)
	}
	// Sources are live: the next snapshot sees the new value.
	hits = 9
	if v := reg.Snapshot().Value("mc.pop.hits"); v != 9 {
		t.Errorf("live source read %v", v)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("ghost metric")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Gauge("a", func() float64 { return 0 })
}

func TestStepProfiler(t *testing.T) {
	p := NewStepProfiler([]string{"other", "sizeclass", "pushpop"})
	p.ObserveCall([]uint64{5, 3, 0}, []uint64{4, 2, 0})
	p.ObserveCall([]uint64{1, 0, 8}, []uint64{1, 0, 3})
	reg := NewRegistry()
	p.Register(reg)
	s := reg.Snapshot()
	if v := s.Value("step.sizeclass.cycles"); v != 3 {
		t.Errorf("sizeclass cycles = %v", v)
	}
	if v := s.Value("step.pushpop.cycles"); v != 8 {
		t.Errorf("pushpop cycles = %v", v)
	}
	if v := s.Value("step.other.uops"); v != 5 {
		t.Errorf("other uops = %v", v)
	}
	if v := s.Value("step.sizeclass.calls"); v != 1 {
		t.Errorf("sizeclass calls = %v (zero-cycle calls must not count)", v)
	}
	m, ok := s.Get("step.pushpop.percall")
	if !ok || m.Kind != KindHistogram || m.Count != 1 || m.Sum != 8 {
		t.Errorf("pushpop percall hist: %+v ok=%v", m, ok)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	p := NewStepProfiler([]string{"pushpop"})
	p.ObserveCall([]uint64{4}, []uint64{2})
	reg := NewRegistry()
	reg.Counter("heap.mallocs", func() uint64 { return 42 })
	reg.Gauge("cpu.ipc", func() float64 { return 1.25 })
	p.Register(reg)
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("snapshot JSON not an object: %v", err)
	}
	if m["heap.mallocs"] != float64(42) {
		t.Errorf("counter JSON = %v", m["heap.mallocs"])
	}
	if m["cpu.ipc"] != 1.25 {
		t.Errorf("gauge JSON = %v", m["cpu.ipc"])
	}
	h, ok := m["step.pushpop.percall"].(map[string]any)
	if !ok || h["count"] != float64(1) || h["sum"] != float64(4) {
		t.Errorf("hist JSON = %v", m["step.pushpop.percall"])
	}
}

// TestRegistryConcurrentSnapshots exercises the mutex under -race: multiple
// goroutines snapshotting while another registers.
func TestRegistryConcurrentSnapshots(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("base", func() uint64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			reg.Gauge(string(rune('a'+i%26))+string(rune('0'+i/26)), func() float64 { return 0 })
		}
	}()
	wg.Wait()
	if reg.Len() < 51 {
		t.Errorf("Len = %d", reg.Len())
	}
}

func TestRegistrySub(t *testing.T) {
	reg := NewRegistry()
	sub := reg.Sub("core0.")
	sub.Counter("cpu.cycles", func() uint64 { return 11 })
	nested := sub.Sub("l1d.")
	nested.Gauge("miss_rate", func() float64 { return 0.25 })
	reg.Counter("engine.epochs", func() uint64 { return 3 })

	s := reg.Snapshot()
	if got := s.Value("core0.cpu.cycles"); got != 11 {
		t.Errorf("core0.cpu.cycles = %v, want 11", got)
	}
	if got := s.Value("core0.l1d.miss_rate"); got != 0.25 {
		t.Errorf("core0.l1d.miss_rate = %v, want 0.25", got)
	}
	if got := s.Value("engine.epochs"); got != 3 {
		t.Errorf("engine.epochs = %v, want 3", got)
	}
	// Views read the whole root registry.
	if sub.Len() != reg.Len() || reg.Len() != 3 {
		t.Errorf("Len: sub=%d root=%d, want 3", sub.Len(), reg.Len())
	}
	if len(sub.Snapshot().Metrics) != 3 {
		t.Errorf("sub snapshot has %d metrics, want 3", len(sub.Snapshot().Metrics))
	}

	// Duplicate detection spans views: the same full name panics.
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration through view did not panic")
		}
	}()
	reg.Counter("core0.cpu.cycles", func() uint64 { return 0 })
}
