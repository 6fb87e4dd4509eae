package jemalloc

import (
	"testing"
	"testing/quick"

	"mallacc/internal/cachesim"
	"mallacc/internal/cpu"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
)

type driver struct {
	h    *Heap
	tc   *ThreadCache
	core *cpu.Core
}

func newDriver(mode tcmalloc.Mode) *driver {
	cfg := DefaultConfig()
	cfg.Mode = mode
	h := New(cfg)
	return &driver{h: h, tc: h.NewThread(), core: cpu.New(cpu.DefaultConfig(), cachesim.NewDefaultHierarchy())}
}

func (d *driver) malloc(size uint64) (uint64, uint64) {
	d.h.Em.Reset()
	a := d.h.Malloc(d.tc, size)
	return a, d.core.RunTrace(d.h.Em.Trace())
}

func (d *driver) free(addr, size uint64) uint64 {
	d.h.Em.Reset()
	d.h.Free(d.tc, addr, size)
	return d.core.RunTrace(d.h.Em.Trace())
}

func TestSizeClassesShape(t *testing.T) {
	sc := NewSizeClasses()
	if sc.NumClasses() != 40 {
		t.Fatalf("class count %d, want 40", sc.NumClasses())
	}
	// Linear region then 4-per-group geometric.
	expect := []uint64{16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512}
	for i, want := range expect {
		if got := sc.ClassSize(i); got != want {
			t.Errorf("class %d size %d, want %d", i, got, want)
		}
	}
	if last := sc.ClassSize(sc.NumClasses() - 1); last != MaxSmall {
		t.Errorf("last class %d, want %d", last, MaxSmall)
	}
}

func TestSize2IndexSound(t *testing.T) {
	sc := NewSizeClasses()
	for size := uint64(1); size <= MaxSmall; size += 13 {
		c, ok := sc.Size2Index(size)
		if !ok {
			t.Fatalf("no class for %d", size)
		}
		if got := sc.ClassSize(c); got < size {
			t.Fatalf("class %d (%dB) rounds %d down", c, got, size)
		}
		if c > 0 && sc.ClassSize(c-1) >= size {
			t.Fatalf("size %d should fit class %d (%dB), got %d", size, c-1, sc.ClassSize(c-1), c)
		}
	}
	if _, ok := sc.Size2Index(MaxSmall + 1); ok {
		t.Fatal("oversize mapped to a class")
	}
	// Exact class sizes map to themselves.
	for c := 0; c < sc.NumClasses(); c++ {
		got, ok := sc.Size2Index(sc.ClassSize(c))
		if !ok || got != c {
			t.Fatalf("Size2Index(ClassSize(%d)) = %d", c, got)
		}
	}
}

func TestMallocFreeRoundTrip(t *testing.T) {
	d := newDriver(tcmalloc.ModeBaseline)
	a, _ := d.malloc(64)
	if a == 0 {
		t.Fatal("nil allocation")
	}
	d.free(a, 64)
	b, _ := d.malloc(64)
	if b != a {
		t.Fatalf("LIFO tcache should reuse: %#x vs %#x", b, a)
	}
	d.h.CheckInvariants()
}

func TestDistinctNonOverlapping(t *testing.T) {
	d := newDriver(tcmalloc.ModeBaseline)
	rng := stats.NewRNG(3)
	type blk struct{ a, s uint64 }
	var live []blk
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Bernoulli(0.45) {
			k := rng.Intn(len(live))
			d.free(live[k].a, live[k].s)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1 + rng.Intn(3000))
		a, _ := d.malloc(size)
		c, _ := d.h.SC.Size2Index(size)
		rounded := d.h.SC.ClassSize(c)
		for _, b := range live {
			if a < b.a+b.s && b.a < a+rounded {
				t.Fatalf("overlap at %#x", a)
			}
		}
		live = append(live, blk{a, rounded})
	}
	d.h.CheckInvariants()
}

func TestLargeAllocations(t *testing.T) {
	d := newDriver(tcmalloc.ModeBaseline)
	a, _ := d.malloc(64 << 10)
	if a == 0 || d.h.Stats.LargeAlloc != 1 {
		t.Fatalf("large alloc failed: %#x %d", a, d.h.Stats.LargeAlloc)
	}
	d.free(a, 64<<10)
	d.h.CheckInvariants()
}

func TestModesFunctionallyIdentical(t *testing.T) {
	db := newDriver(tcmalloc.ModeBaseline)
	dm := newDriver(tcmalloc.ModeMallacc)
	rng := stats.NewRNG(11)
	type blk struct{ a, s uint64 }
	var live []blk
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && rng.Bernoulli(0.48) {
			k := rng.Intn(len(live))
			db.free(live[k].a, live[k].s)
			dm.free(live[k].a, live[k].s)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1 + rng.Intn(2048))
		a1, _ := db.malloc(size)
		a2, _ := dm.malloc(size)
		if a1 != a2 {
			t.Fatalf("iteration %d: baseline %#x vs mallacc %#x", i, a1, a2)
		}
		live = append(live, blk{a1, size})
	}
	db.h.CheckInvariants()
	dm.h.CheckInvariants()
}

// TestMallaccSpeedsUpJemalloc is the cross-allocator claim: the same five
// instructions accelerate a tcache whose structures differ from
// TCMalloc's.
func TestMallaccSpeedsUpJemalloc(t *testing.T) {
	measure := func(mode tcmalloc.Mode) float64 {
		d := newDriver(mode)
		d.h.Cfg.SampleInterval = 0
		var warm []uint64
		for i := 0; i < 48; i++ {
			a, _ := d.malloc(96)
			warm = append(warm, a)
		}
		for _, a := range warm {
			d.free(a, 96)
		}
		var tot uint64
		const n = 2000
		for i := 0; i < n; i++ {
			a, c := d.malloc(96)
			tot += c
			d.free(a, 96)
		}
		return float64(tot) / n
	}
	base := measure(tcmalloc.ModeBaseline)
	acc := measure(tcmalloc.ModeMallacc)
	t.Logf("jemalloc fast path: baseline %.1f cycles, mallacc %.1f cycles", base, acc)
	if acc >= base {
		t.Fatalf("no speedup: %.1f vs %.1f", acc, base)
	}
	if acc > 0.9*base {
		t.Errorf("speedup too small: %.1f vs %.1f", acc, base)
	}
}

func TestTcacheFillFlushCycle(t *testing.T) {
	d := newDriver(tcmalloc.ModeMallacc)
	// Allocate far beyond a bin's capacity, then free everything: fills,
	// flushes and slab churn must all stay consistent.
	var addrs []uint64
	for i := 0; i < 4*maxCached; i++ {
		a, _ := d.malloc(128)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		d.free(a, 128)
	}
	if d.h.Stats.Fills == 0 || d.h.Stats.Flushes == 0 {
		t.Fatalf("fills=%d flushes=%d", d.h.Stats.Fills, d.h.Stats.Flushes)
	}
	// And allocate again to exercise reuse after flush.
	for i := 0; i < maxCached; i++ {
		d.malloc(128)
	}
	d.h.CheckInvariants()
}

func TestSlabReleasedWhenEmpty(t *testing.T) {
	d := newDriver(tcmalloc.ModeBaseline)
	// 4KB regions: slab of 8 pages holds 16 regions. Allocate a few slabs
	// worth, then free everything; slabs (except the bin's current one)
	// must return their pages.
	// Enough to overflow the tcache bin (so frees reach the arena) and
	// span many slabs.
	var addrs []uint64
	for i := 0; i < 200; i++ {
		a, _ := d.malloc(4096)
		addrs = append(addrs, a)
	}
	made := d.h.Stats.SlabsMade
	if made < 5 {
		t.Fatalf("expected several slabs, got %d", made)
	}
	for _, a := range addrs {
		d.free(a, 4096)
	}
	// Drain the tcache too.
	freed := d.h.PageHeap.SpansFreed
	if freed == 0 {
		t.Error("no slabs released to the page heap after mass free")
	}
	d.h.CheckInvariants()
}

func TestUnsizedFreeWalksRadix(t *testing.T) {
	d := newDriver(tcmalloc.ModeBaseline)
	a, _ := d.malloc(200)
	cyc := d.free(a, 0) // unsized: must find the slab through the pagemap
	if cyc == 0 {
		t.Fatal("free did nothing")
	}
	b, _ := d.malloc(200)
	if b != a {
		t.Fatalf("unsized free lost the region: %#x vs %#x", b, a)
	}
	d.h.CheckInvariants()
}

func TestContextSwitchFlush(t *testing.T) {
	d := newDriver(tcmalloc.ModeMallacc)
	for i := 0; i < 100; i++ {
		a, _ := d.malloc(64)
		d.free(a, 64)
	}
	d.h.MC.Flush()
	if d.h.MC.Stats.Flushes != 1 {
		t.Fatal("flush not recorded")
	}
	a, _ := d.malloc(64)
	if a == 0 {
		t.Fatal("allocation after flush failed")
	}
	d.h.CheckInvariants()
}

func TestSize2IndexMatchesLinearScanProperty(t *testing.T) {
	sc := NewSizeClasses()
	// Reference: smallest class whose size fits.
	ref := func(size uint64) int {
		for c := 0; c < sc.NumClasses(); c++ {
			if sc.ClassSize(c) >= size {
				return c
			}
		}
		return -1
	}
	f := func(raw uint32) bool {
		size := uint64(raw)%MaxSmall + 1
		got, ok := sc.Size2Index(size)
		return ok && got == ref(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestMallaccCacheSeededAfterFill(t *testing.T) {
	d := newDriver(tcmalloc.ModeMallacc)
	// The first allocation misses everything and triggers a fill; the fill
	// re-seeds the cached pair from registers, so the SECOND allocation's
	// pop must hit.
	d.malloc(64)
	popHitsAfterFill := d.h.MC.Stats.PopHits
	d.malloc(64)
	if d.h.MC.Stats.PopHits <= popHitsAfterFill {
		t.Fatal("pop after fill did not hit the re-seeded pair")
	}
	d.h.CheckInvariants()
}

func TestJemallocFuzz(t *testing.T) {
	f := func(seed uint64) bool {
		d := newDriver(tcmalloc.ModeMallacc)
		rng := stats.NewRNG(seed)
		type blk struct{ a, s uint64 }
		var live []blk
		for i := 0; i < 600; i++ {
			if len(live) > 0 && rng.Bernoulli(0.45) {
				k := rng.Intn(len(live))
				hint := live[k].s
				if rng.Bernoulli(0.3) {
					hint = 0
				}
				d.free(live[k].a, hint)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := uint64(1 + rng.Intn(8000))
			if rng.Bernoulli(0.02) {
				size = MaxSmall + 1 + rng.Uint64n(1<<19)
			}
			a, _ := d.malloc(size)
			var rounded uint64
			if c, ok := d.h.SC.Size2Index(size); ok {
				rounded = d.h.SC.ClassSize(c)
			} else {
				rounded = (size + 8191) &^ 8191
			}
			for _, b := range live {
				if a < b.a+b.s && b.a < a+rounded {
					return false
				}
			}
			live = append(live, blk{a, rounded})
		}
		d.h.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSlabPagesGeometry(t *testing.T) {
	sc := NewSizeClasses()
	for c := 0; c < sc.NumClasses(); c++ {
		pages := sc.SlabPages(c)
		if pages < 1 || pages > 8 {
			t.Fatalf("class %d slab pages %d", c, pages)
		}
		regions := pages * 8192 / sc.ClassSize(c)
		if regions < 2 {
			t.Fatalf("class %d slab holds only %d regions", c, regions)
		}
	}
}
