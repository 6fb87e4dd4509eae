package tcmalloc

import (
	"testing"
	"testing/quick"

	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/uop"
)

// newBareHeap builds a heap and a scratch emitter for direct substrate
// tests (no CPU timing).
func newBareHeap() (*Heap, *uop.Emitter) {
	h := New(DefaultConfig())
	e := uop.NewEmitter()
	e.Reset()
	return h, e
}

func TestPageMapSetGet(t *testing.T) {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 1<<20)
	pm := NewPageMap(arena)
	if pm.Get(123) != nil {
		t.Fatal("empty pagemap returned a span")
	}
	s1 := &Span{Start: 100, Length: 3}
	s2 := &Span{Start: 1 << 20, Length: 1} // far page: different radix subtree
	pm.Set(100, s1)
	pm.Set(1<<20, s2)
	if pm.Get(100) != s1 || pm.Get(1<<20) != s2 {
		t.Fatal("pagemap lookup mismatch")
	}
	if pm.Get(101) != nil {
		t.Fatal("unset page returned a span")
	}
	// Overwrite.
	pm.Set(100, s2)
	if pm.Get(100) != s2 {
		t.Fatal("pagemap overwrite failed")
	}
	if pm.Nodes < 3 {
		t.Fatalf("expected interior node allocations, got %d", pm.Nodes)
	}
}

func TestPageMapEmitGetEmitsRadixWalk(t *testing.T) {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 1<<20)
	pm := NewPageMap(arena)
	s := &Span{Start: 55, Length: 1}
	pm.Set(55, s)
	e := uop.NewEmitter()
	e.Reset()
	got, dep := pm.EmitGet(e, 55, uop.NoDep)
	if got != s {
		t.Fatal("EmitGet wrong span")
	}
	tr := e.Trace()
	loads := 0
	for _, op := range tr.Ops {
		if op.Kind == uop.Load {
			loads++
		}
	}
	if loads != 3 {
		t.Fatalf("radix walk emitted %d loads, want 3", loads)
	}
	// The walk must be serially dependent (the 'caches poorly' property).
	if tr.Ops[dep].Dep1 == uop.NoDep {
		t.Fatal("final radix load has no dependence")
	}
}

func TestPageMapPropertyRandomPages(t *testing.T) {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 16<<20)
	pm := NewPageMap(arena)
	ref := map[uint64]*Span{}
	f := func(pages []uint32) bool {
		for _, p := range pages {
			pid := uint64(p) // 32-bit page ids keep node count bounded
			s := &Span{Start: pid, Length: 1}
			pm.Set(pid, s)
			ref[pid] = s
		}
		for pid, want := range ref {
			if pm.Get(pid) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPageHeapSplitAndExactReuse(t *testing.T) {
	h, e := newBareHeap()
	ph := h.PageHeap
	s := ph.New(e, 5)
	if s.Length != 5 {
		t.Fatalf("got %d pages", s.Length)
	}
	// The grow allocated minSystemAlloc pages; remainder must be on the
	// free lists.
	if ph.FreePages != minSystemAlloc-5 {
		t.Fatalf("free pages %d, want %d", ph.FreePages, minSystemAlloc-5)
	}
	// Freeing and reallocating the same size reuses the coalesced space
	// without growing.
	grows := ph.GrowCalls
	ph.Delete(e, s)
	if ph.FreePages != minSystemAlloc {
		t.Fatalf("coalesce failed: %d free pages", ph.FreePages)
	}
	s2 := ph.New(e, minSystemAlloc)
	if ph.GrowCalls != grows {
		t.Fatal("reallocation grew the heap despite coalesced space")
	}
	if s2.Length != minSystemAlloc {
		t.Fatalf("full-span realloc got %d pages", s2.Length)
	}
	ph.CheckInvariants()
}

func TestPageHeapLargeList(t *testing.T) {
	h, e := newBareHeap()
	ph := h.PageHeap
	big := ph.New(e, MaxPages+10)
	if big.Length != MaxPages+10 {
		t.Fatalf("large span %d pages", big.Length)
	}
	ph.Delete(e, big)
	// Best-fit from the large list.
	again := ph.New(e, MaxPages+1)
	if again.Start != big.Start {
		t.Fatalf("large reuse at %d, want %d", again.Start, big.Start)
	}
	ph.CheckInvariants()
}

func TestPageHeapCoalesceBothSides(t *testing.T) {
	h, e := newBareHeap()
	ph := h.PageHeap
	a := ph.New(e, 4)
	b := ph.New(e, 4)
	c := ph.New(e, 4)
	if b.Start != a.Start+4 || c.Start != b.Start+4 {
		t.Skip("spans not adjacent; carving order changed")
	}
	ph.Delete(e, a)
	ph.Delete(e, c)
	free := ph.FreePages
	ph.Delete(e, b) // must merge with both neighbours
	if ph.FreePages != free+4 {
		t.Fatalf("free pages %d", ph.FreePages)
	}
	// The merged span must be allocatable as one piece.
	s := ph.New(e, 12)
	if s.Start != a.Start {
		t.Fatalf("merged allocation at %d, want %d", s.Start, a.Start)
	}
	ph.CheckInvariants()
}

func TestCentralFreeListTransferCache(t *testing.T) {
	h, e := newBareHeap()
	cl := uint8(3)
	c := h.Central[cl]
	batch := h.SizeMap.NumToMove(cl)
	// Get a full batch out and put it back: the round trip must use the
	// transfer cache.
	head, got := c.RemoveRange(e, batch)
	if got != batch || head == 0 {
		t.Fatalf("RemoveRange got %d", got)
	}
	misses := c.TransferMisses
	c.InsertRange(e, head, batch)
	head2, got2 := c.RemoveRange(e, batch)
	if got2 != batch {
		t.Fatalf("second RemoveRange got %d", got2)
	}
	if c.TransferHits == 0 {
		t.Fatal("full-batch round trip bypassed the transfer cache")
	}
	if c.TransferMisses != misses {
		t.Fatal("unexpected transfer miss")
	}
	if head2 != head {
		t.Fatalf("transfer cache returned a different chain: %#x vs %#x", head2, head)
	}
	c.InsertRange(e, head2, batch)
	c.CheckInvariants()
	h.PageHeap.CheckInvariants()
}

func TestCentralReleasesEmptySpans(t *testing.T) {
	h, e := newBareHeap()
	cl := uint8(2) // 32-byte objects
	c := h.Central[cl]
	// Drain several spans worth of objects, then insert everything back
	// one object at a time (avoiding the transfer cache) so spans empty
	// out and return to the page heap.
	var objs []uint64
	for i := 0; i < 600; i++ {
		head, got := c.RemoveRange(e, 1)
		if got != 1 {
			t.Fatal("RemoveRange(1) failed")
		}
		objs = append(objs, head)
	}
	spansBefore := h.PageHeap.SpansFreed
	for _, o := range objs {
		h.Space.WriteWord(o, 0)
		c.InsertRange(e, o, 1)
	}
	if h.PageHeap.SpansFreed == spansBefore {
		t.Fatal("no spans returned to the page heap")
	}
	c.CheckInvariants()
	h.PageHeap.CheckInvariants()
}

func TestSizeMapFragmentationBound(t *testing.T) {
	h, _ := newBareHeap()
	sm := h.SizeMap
	// The generator's rule: span leftover after slicing into objects is
	// at most 1/8 of the span.
	for c := 1; c < sm.NumClasses(); c++ {
		size := sm.ClassSize(uint8(c))
		span := sm.ClassPages(uint8(c)) << mem.PageShift
		waste := span % size
		if waste > span/8 {
			t.Errorf("class %d (%dB, %dB span): leftover %d > span/8", c, size, span, waste)
		}
		if sm.NumToMove(uint8(c)) < 2 || sm.NumToMove(uint8(c)) > 32 {
			t.Errorf("class %d batch %d out of [2,32]", c, sm.NumToMove(uint8(c)))
		}
	}
}

func TestSizeMapClassForMatchesClassIndexTable(t *testing.T) {
	h, _ := newBareHeap()
	sm := h.SizeMap
	// Property: ClassFor is monotone in its class and exact at class
	// boundaries.
	f := func(raw uint32) bool {
		size := uint64(raw)%MaxSize + 1
		c, rounded, ok := sm.ClassFor(size)
		if !ok || c == 0 {
			return false
		}
		if rounded != sm.ClassSize(c) || rounded < size {
			return false
		}
		// The exact rounded size maps to the same class.
		c2, _, _ := sm.ClassFor(rounded)
		return c2 == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// refAlloc is a trivially correct reference allocator: it tracks live
// ranges in a map and checks non-overlap. The fuzzer drives the real heap
// and the reference together.
func TestHeapFuzzAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		d := driver{h: New(DefaultConfig())}
		d.tc = d.h.NewThread()
		e := d.h.Em
		rng := stats.NewRNG(seed)
		type blk struct{ addr, size, rounded uint64 }
		var live []blk
		for i := 0; i < 800; i++ {
			e.Reset()
			if len(live) > 0 && rng.Bernoulli(0.45) {
				k := rng.Intn(len(live))
				hint := live[k].size
				if rng.Bernoulli(0.3) {
					hint = 0 // unsized delete: radix path
				}
				d.h.Free(d.tc, live[k].addr, hint)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := uint64(1 + rng.Intn(12000))
			if rng.Bernoulli(0.02) {
				size = uint64(256<<10) + rng.Uint64n(1<<20) // large path
			}
			addr := d.h.Malloc(d.tc, size)
			rounded := size
			if c, r, ok := d.h.SizeMap.ClassFor(size); ok && c > 0 {
				rounded = r
			} else {
				rounded = mem.RoundUp(size, mem.PageSize)
			}
			for _, b := range live {
				if addr < b.addr+b.rounded && b.addr < addr+rounded {
					return false
				}
			}
			live = append(live, blk{addr, size, rounded})
		}
		d.h.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScavengeTriggersOnCacheBudget(t *testing.T) {
	d := newDriver(t, ModeBaseline)
	// Hold many large-class objects so the cache exceeds 2 MiB on free.
	var addrs []uint64
	for i := 0; i < 40; i++ {
		a, _ := d.malloc(128 << 10)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		d.free(a, 128<<10)
	}
	if d.tc.Scavenges == 0 {
		t.Fatal("2 MiB thread-cache budget never triggered a scavenge")
	}
	d.h.CheckInvariants()
}

func TestEmitterStepRestoredAcrossSlowPath(t *testing.T) {
	// A central fetch inside popStep must not leave the emitter in
	// StepOther for subsequent fast-path tagging.
	h, _ := newBareHeap()
	tc := h.NewThread()
	h.Em.Reset()
	h.Malloc(tc, 64) // cold: goes through the central path
	overhead := 0
	for _, op := range h.Em.Trace().Ops {
		if op.Step == uop.StepCallOverhead {
			overhead++
		}
	}
	if overhead == 0 {
		t.Fatal("epilogue lost its call-overhead tag after a slow path")
	}
}
