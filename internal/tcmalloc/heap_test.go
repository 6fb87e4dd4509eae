package tcmalloc

import (
	"testing"

	"mallacc/internal/cachesim"
	"mallacc/internal/cpu"
	"mallacc/internal/stats"
)

func newTestHeap(mode Mode) (*Heap, *ThreadCache) {
	cfg := DefaultConfig()
	cfg.Mode = mode
	h := New(cfg)
	return h, h.NewThread()
}

// drain runs the emitter's current trace through a fresh throwaway core so
// traces don't accumulate; functional tests mostly ignore the cycles.
type driver struct {
	h    *Heap
	tc   *ThreadCache
	core *cpu.Core
}

func newDriver(t *testing.T, mode Mode) *driver {
	t.Helper()
	h, tc := newTestHeap(mode)
	return &driver{h: h, tc: tc, core: cpu.New(cpu.DefaultConfig(), cachesim.NewDefaultHierarchy())}
}

func (d *driver) malloc(size uint64) (uint64, uint64) {
	d.h.Em.Reset()
	addr := d.h.Malloc(d.tc, size)
	return addr, d.core.RunTrace(d.h.Em.Trace())
}

func (d *driver) free(addr, size uint64) uint64 {
	d.h.Em.Reset()
	d.h.Free(d.tc, addr, size)
	return d.core.RunTrace(d.h.Em.Trace())
}

func TestMallocReturnsDistinctAlignedAddresses(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		size := uint64(8 + 16*(i%30))
		a, _ := d.malloc(size)
		if a == 0 {
			t.Fatalf("malloc(%d) returned 0", size)
		}
		if a%8 != 0 {
			t.Fatalf("malloc(%d) returned unaligned %#x", size, a)
		}
		if seen[a] {
			t.Fatalf("malloc(%d) returned duplicate live address %#x", size, a)
		}
		seen[a] = true
	}
	d.h.CheckInvariants()
}

func TestMallocFreeReuse(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	a, _ := d.malloc(64)
	d.free(a, 64)
	b, _ := d.malloc(64)
	if a != b {
		t.Fatalf("LIFO thread cache should reuse the freed block: got %#x want %#x", b, a)
	}
	d.h.CheckInvariants()
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	type block struct{ addr, size uint64 }
	var live []block
	rng := stats.NewRNG(7)
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Bernoulli(0.45) {
			k := rng.Intn(len(live))
			d.free(live[k].addr, live[k].size)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1 + rng.Intn(2000))
		a, _ := d.malloc(size)
		rounded := size
		if c, r, ok := d.h.SizeMap.ClassFor(size); ok && c > 0 {
			rounded = r
		}
		for _, b := range live {
			if a < b.addr+b.size && b.addr < a+rounded {
				t.Fatalf("overlap: new [%#x,%#x) with live [%#x,%#x)", a, a+rounded, b.addr, b.addr+b.size)
			}
		}
		live = append(live, block{a, rounded})
	}
	d.h.CheckInvariants()
}

func TestLargeAllocations(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	a, _ := d.malloc(300 << 10)
	b, _ := d.malloc(1 << 20)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("large allocations failed: %#x %#x", a, b)
	}
	if d.h.StatsSnapshot().LargeMallocs != 2 {
		t.Fatalf("expected 2 large mallocs, got %d", d.h.StatsSnapshot().LargeMallocs)
	}
	d.free(a, 300<<10)
	d.free(b, 1<<20)
	if d.h.StatsSnapshot().LargeFrees != 2 {
		t.Fatalf("expected 2 large frees, got %d", d.h.StatsSnapshot().LargeFrees)
	}
	d.h.CheckInvariants()
}

// TestModesFunctionallyIdentical is the key correctness property of the
// accelerator: Mallacc never changes which addresses the allocator hands
// out, only how fast it does so.
func TestModesFunctionallyIdentical(t *testing.T) {
	db := newDriver(t, ModeBaseline)
	dm := newDriver(t, ModeMallacc)
	rng := stats.NewRNG(42)
	type block struct{ addr, size uint64 }
	var live []block
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Bernoulli(0.48) {
			k := rng.Intn(len(live))
			db.free(live[k].addr, live[k].size)
			dm.free(live[k].addr, live[k].size)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1 + rng.Intn(4096))
		a1, _ := db.malloc(size)
		a2, _ := dm.malloc(size)
		if a1 != a2 {
			t.Fatalf("iteration %d: baseline returned %#x, mallacc %#x for size %d", i, a1, a2, size)
		}
		live = append(live, block{a1, size})
	}
	db.h.CheckInvariants()
	dm.h.CheckInvariants()
	// Uniform sizes over 1..4096 touch ~50 size classes, well beyond the
	// 16-entry cache, so hit rates are capacity-bound (cf. Fig. 17) — we
	// only require they are nontrivial.
	if hr := dm.h.MC.Stats.PopHitRate(); hr < 0.3 {
		t.Errorf("malloc cache pop hit rate suspiciously low: %.2f", hr)
	}
	if hr := dm.h.MC.Stats.LookupHitRate(); hr < 0.5 {
		t.Errorf("size-class lookup hit rate suspiciously low: %.2f", hr)
	}
}

// TestMallocCacheHitRateWithFewClasses mirrors the paper's observation that
// workloads using <5 size classes (Fig. 6) hit almost always.
func TestMallocCacheHitRateWithFewClasses(t *testing.T) {
	d := newDriver(t, ModeMallacc)
	sizes := []uint64{16, 48, 96, 256}
	// Build list depth first: a pop hit needs both cached elements, which
	// a 1-deep list can never provide.
	var warm []uint64
	for i := 0; i < 8; i++ {
		for _, s := range sizes {
			a, _ := d.malloc(s)
			warm = append(warm, a)
		}
	}
	for i, a := range warm {
		d.free(a, sizes[i%len(sizes)])
	}
	for i := 0; i < 4000; i++ {
		s := sizes[i%len(sizes)]
		a, _ := d.malloc(s)
		d.free(a, s)
	}
	if hr := d.h.MC.Stats.LookupHitRate(); hr < 0.99 {
		t.Errorf("4-class lookup hit rate %.3f, want ~1", hr)
	}
	if hr := d.h.MC.Stats.PopHitRate(); hr < 0.9 {
		t.Errorf("4-class pop hit rate %.3f, want >0.9", hr)
	}
}

// TestFastPathCycleCalibration checks the paper's anchor numbers: a warm
// baseline thread-cache hit takes ~18-20 cycles and the Mallacc fast path
// is meaningfully faster.
func TestFastPathCycleCalibration(t *testing.T) {
	measure := func(mode Mode) float64 {
		d := newDriver(t, mode)
		d.h.Cfg.SampleInterval = 0 // isolate the pure fast path
		// Warm up: build list depth and warm predictors/caches.
		var addrs []uint64
		for i := 0; i < 64; i++ {
			a, _ := d.malloc(64)
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			d.free(a, 64)
		}
		var total uint64
		const n = 2000
		for i := 0; i < n; i++ {
			a, cyc := d.malloc(64)
			total += cyc
			d.free(a, 64)
		}
		return float64(total) / n
	}
	base := measure(ModeBaseline)
	fast := measure(ModeMallacc)
	t.Logf("baseline fast path: %.1f cycles, mallacc: %.1f cycles", base, fast)
	if base < 12 || base > 30 {
		t.Errorf("baseline fast path %.1f cycles outside the paper's 18-20 +/- tolerance band", base)
	}
	if fast >= base {
		t.Errorf("Mallacc fast path (%.1f) not faster than baseline (%.1f)", fast, base)
	}
	if fast > 0.85*base {
		t.Errorf("Mallacc speedup too small: %.1f vs %.1f", fast, base)
	}
}

func TestSizeMapProperties(t *testing.T) {
	h, _ := newTestHeap(ModeBaseline)
	sm := h.SizeMap
	n := sm.NumClasses()
	if n < 60 || n > MaxNumClasses {
		t.Fatalf("unexpected class count %d", n)
	}
	t.Logf("generated %d size classes", n-1)
	prev := uint64(0)
	for c := 1; c < n; c++ {
		s := sm.ClassSize(uint8(c))
		if s <= prev {
			t.Fatalf("class sizes not strictly increasing at class %d: %d <= %d", c, s, prev)
		}
		prev = s
	}
	if prev != MaxSize {
		t.Fatalf("largest class %d != MaxSize %d", prev, MaxSize)
	}
	// Rounding is sound and fragmentation bounded for every size.
	for size := uint64(1); size <= MaxSize; size += 7 {
		c, rounded, ok := sm.ClassFor(size)
		if !ok || c == 0 {
			t.Fatalf("no class for size %d", size)
		}
		if rounded < size {
			t.Fatalf("class %d rounds size %d down to %d", c, size, rounded)
		}
	}
}

func TestClassIndexMatchesPaperFigure5(t *testing.T) {
	// Exact values from the paper's Figure 5 formulas.
	cases := []struct{ size, want uint64 }{
		{1, 1},
		{8, 1},
		{9, 2},
		{16, 2},
		{1024, 128},                       // (1024+7)>>3
		{1025, (1025 + 15487) >> 7},       // first large-branch size
		{MaxSize, (MaxSize + 15487) >> 7}, // 262144 -> 2168
	}
	for _, c := range cases {
		if got := ClassIndex(c.size); got != c.want {
			t.Errorf("ClassIndex(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if ClassIndex(MaxSize) != 2168 {
		t.Errorf("ClassIndex(MaxSize) = %d, want 2168 (the paper's 'slightly above 2100')", ClassIndex(MaxSize))
	}
	if ClassArraySize != 2169 {
		t.Errorf("ClassArraySize = %d, want 2169", ClassArraySize)
	}
}

func TestSampling(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	d.h.Cfg.SampleInterval = 4096
	// Re-create thread so its sampler picks up the interval.
	d.tc = d.h.NewThread()
	for i := 0; i < 4000; i++ {
		a, _ := d.malloc(128)
		d.free(a, 128)
	}
	if d.h.StatsSnapshot().Sampled == 0 {
		t.Fatal("no sampled allocations with a 4 KiB interval over 512 KiB allocated")
	}
}

func TestHardwareSamplingCounterFires(t *testing.T) {
	d := newDriver(t, ModeMallacc)
	d.h.Cfg.SampleInterval = 4096
	d.tc = d.h.NewThread()
	for i := 0; i < 4000; i++ {
		a, _ := d.malloc(128)
		d.free(a, 128)
	}
	hw, sampled := d.h.HWCounter, d.h.StatsSnapshot().Sampled
	if sampled == 0 || hw.Interrupts != sampled {
		t.Fatalf("PMU interrupts %d, sampled allocations %d: want equal and nonzero", hw.Interrupts, sampled)
	}
	if hw.BytesAccumulated != 4000*128 {
		t.Fatalf("PMU accumulated %d bytes, want %d", hw.BytesAccumulated, 4000*128)
	}
}

func TestCrossThreadFree(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	t2 := d.h.NewThread()
	// Thread 1 allocates, thread 2 frees: memory must migrate through the
	// central lists without corruption.
	var addrs []uint64
	for i := 0; i < 2000; i++ {
		a, _ := d.malloc(96)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		d.h.Em.Reset()
		d.h.Free(t2, a, 96)
		d.core.RunTrace(d.h.Em.Trace())
	}
	d.h.CheckInvariants()
	// Thread 2's cache should have shed batches centrally.
	if t2.ListTooLongs == 0 {
		t.Error("expected list-too-long releases on the freeing thread")
	}
	// And thread 1 can re-get the memory.
	a, _ := d.malloc(96)
	if a == 0 {
		t.Fatal("re-allocation after migration failed")
	}
}

func TestPageHeapCoalescing(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	// Allocate three adjacent large blocks, free them, and check the heap
	// coalesces: a following bigger allocation should fit in place.
	a, _ := d.malloc(512 << 10)
	b, _ := d.malloc(512 << 10)
	c, _ := d.malloc(512 << 10)
	if b != a+(512<<10) || c != b+(512<<10) {
		t.Skipf("blocks not adjacent (%#x %#x %#x); layout changed", a, b, c)
	}
	d.free(a, 512<<10)
	d.free(b, 512<<10)
	d.free(c, 512<<10)
	grown := d.h.Space.SbrkBytes
	big, _ := d.malloc(1536 << 10)
	if big != a {
		t.Errorf("coalesced reuse expected at %#x, got %#x", a, big)
	}
	if d.h.Space.SbrkBytes != grown {
		t.Errorf("heap grew despite coalesced free space")
	}
	d.h.CheckInvariants()
}

func TestMallocCacheInvalidatedOnRelease(t *testing.T) {
	d := newDriver(t, ModeMallacc)
	// Free enough objects of one class to trigger a release to central;
	// subsequent pops must stay consistent (the heap panics on any cached/
	// real mismatch, so surviving is the assertion).
	var addrs []uint64
	for i := 0; i < 5000; i++ {
		a, _ := d.malloc(48)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		d.free(a, 48)
	}
	for i := 0; i < 5000; i++ {
		d.malloc(48)
	}
	d.h.CheckInvariants()
}

func TestCallocZeroesAndAllocates(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	d.h.Em.Reset()
	a := d.h.Calloc(d.tc, 128)
	cyc := d.core.RunTrace(d.h.Em.Trace())
	if a == 0 || cyc == 0 {
		t.Fatal("calloc failed")
	}
	if d.h.Space.ReadWord(a) != 0 {
		t.Fatal("calloc left a dirty word")
	}
	d.h.CheckInvariants()
}

func TestReallocSemantics(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	do := func(f func() uint64) uint64 {
		d.h.Em.Reset()
		r := f()
		d.core.RunTrace(d.h.Em.Trace())
		return r
	}
	// nil -> malloc
	a := do(func() uint64 { return d.h.Realloc(d.tc, 0, 0, 100) })
	if a == 0 {
		t.Fatal("realloc(nil) failed")
	}
	// Same class: in place.
	b := do(func() uint64 { return d.h.Realloc(d.tc, a, 100, 110) })
	if b != a {
		t.Fatalf("same-class realloc moved: %#x -> %#x", a, b)
	}
	// Grow across classes: moves.
	c := do(func() uint64 { return d.h.Realloc(d.tc, b, 110, 4000) })
	if c == b {
		t.Fatal("cross-class realloc did not move")
	}
	// Moderate shrink: stays.
	e := do(func() uint64 { return d.h.Realloc(d.tc, c, 4000, 2500) })
	if e != c {
		t.Fatal("moderate shrink moved")
	}
	// Deep shrink: moves.
	f := do(func() uint64 { return d.h.Realloc(d.tc, e, 4000, 64) })
	if f == e {
		t.Fatal("deep shrink did not move")
	}
	// Size 0: free.
	if g := do(func() uint64 { return d.h.Realloc(d.tc, f, 64, 0) }); g != 0 {
		t.Fatal("realloc to 0 did not free")
	}
	d.h.CheckInvariants()
}

func TestMultiThreadedChurn(t *testing.T) {
	d := newDriver(t, ModeMallacc)
	t2 := d.h.NewThread()
	t3 := d.h.NewThread()
	threads := []*ThreadCache{d.tc, t2, t3}
	rng := stats.NewRNG(77)
	type blk struct{ a, s uint64 }
	var live []blk
	cur := 0
	for i := 0; i < 6000; i++ {
		// A single core runs one thread at a time: switching the active
		// thread cache is a context switch, which flushes the malloc
		// cache (Sec. 4.1). Interleaving threads per call without the
		// flush would hand thread B thread A's cached list heads — the
		// allocator's sync panic guards exactly that contract.
		if i%500 == 499 {
			cur = rng.Intn(len(threads))
			if d.h.MC != nil {
				d.h.MC.Flush()
			}
			d.core.ContextSwitch()
		}
		tc := threads[cur]
		if len(live) > 0 && rng.Bernoulli(0.5) {
			k := rng.Intn(len(live))
			d.h.Em.Reset()
			d.h.Free(tc, live[k].a, live[k].s)
			d.core.RunTrace(d.h.Em.Trace())
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1 + rng.Intn(1024))
		d.h.Em.Reset()
		a := d.h.Malloc(tc, size)
		d.core.RunTrace(d.h.Em.Trace())
		live = append(live, blk{a, size})
	}
	d.h.CheckInvariants()
}
