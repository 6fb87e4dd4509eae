package tcmalloc

import (
	"fmt"

	"mallacc/internal/core"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Mode selects which fast path the allocator emits.
type Mode uint8

const (
	// ModeBaseline is unmodified TCMalloc: software size-class
	// computation, software sampling check, software list pop/push.
	ModeBaseline Mode = iota
	// ModeMallacc uses the five accelerator instructions per the paper's
	// Figures 10 and 12, with software fallbacks on malloc-cache misses.
	ModeMallacc
)

func (m Mode) String() string {
	if m == ModeMallacc {
		return "mallacc"
	}
	return "baseline"
}

// Config parameterizes a Heap.
type Config struct {
	Mode Mode
	// MallocCache configures the accelerator (ModeMallacc only).
	MallocCache core.Config
	// SizedDelete models compiling with -fsized-deallocation: free()
	// receives the object size and can skip the page-map walk ("we assume
	// sized delete when applicable", Sec. 3.3).
	SizedDelete bool
	// SampleInterval is the mean bytes between sampled allocations
	// (0 disables sampling).
	SampleInterval int64
	// Seed drives the sampler's exponential draws.
	Seed uint64
	// Ablate selectively disables accelerator components (ModeMallacc
	// only), for the component-level ablation study.
	Ablate Ablation
}

// Ablation switches off individual Mallacc components while keeping the
// rest of the accelerated fast path, quantifying each component's
// contribution.
type Ablation struct {
	// NoHWSampler keeps the software sampling sequence on the fast path
	// instead of the PMU counter (Sec. 4.2).
	NoHWSampler bool
	// NoSizeCache drops mcszlookup: the size class is always computed in
	// software (entries are still maintained so list caching works).
	NoSizeCache bool
	// NoListCache drops mchdpop/mchdpush/mcnxtprefetch: free-list
	// operations always run the software sequences.
	NoListCache bool
}

// DefaultConfig returns a baseline heap configuration with sampling and
// sized delete on.
func DefaultConfig() Config {
	return Config{
		Mode:           ModeBaseline,
		MallocCache:    core.DefaultConfig(),
		SizedDelete:    true,
		SampleInterval: DefaultSampleInterval,
		Seed:           1,
	}
}

// HeapStats aggregates allocator-level event counts.
type HeapStats struct {
	Mallocs        uint64
	Frees          uint64
	FastHits       uint64 // thread-cache hits
	CentralFetches uint64 // thread-cache misses
	LargeMallocs   uint64
	LargeFrees     uint64
	Sampled        uint64
}

// Heap is the top-level allocator instance: simulated memory, the size
// map, the page heap, per-class central lists, per-thread caches, and (in
// ModeMallacc) the accelerator state.
type Heap struct {
	Space    *mem.Space
	Arena    *mem.Arena
	SizeMap  *SizeMap
	PageHeap *PageHeap
	Central  []*CentralFreeList

	// MC is the malloc cache (nil in baseline mode).
	MC *core.MallocCache
	// HWCounter is the sampling performance counter (nil in baseline).
	HWCounter *core.SampleCounter

	// Em receives the micro-op trace of the current call. The driver
	// resets it before each Malloc/Free and feeds the trace to the CPU
	// model afterwards.
	Em *uop.Emitter

	// Lock is the shared-lock contention hook (nil when single-core);
	// install it with SetLockModel so the page heap sees it too.
	Lock LockModel

	Cfg     Config
	rng     *stats.RNG
	threads []*ThreadCache
	Stats   HeapStats
}

// New builds a heap over a fresh simulated address space.
func New(cfg Config) *Heap {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 8<<20)
	h := &Heap{
		Space: space,
		Arena: arena,
		Cfg:   cfg,
		rng:   stats.NewRNG(cfg.Seed ^ 0xa11c),
		Em:    uop.NewEmitter(),
	}
	h.SizeMap = NewSizeMap(arena)
	pm := NewPageMap(arena)
	h.PageHeap = NewPageHeap(space, arena, pm)
	h.Central = make([]*CentralFreeList, h.SizeMap.NumClasses())
	for c := 1; c < h.SizeMap.NumClasses(); c++ {
		h.Central[c] = newCentralFreeList(h, uint8(c))
	}
	if cfg.Mode == ModeMallacc {
		h.MC = core.New(cfg.MallocCache)
		h.HWCounter = &core.SampleCounter{}
	}
	return h
}

// Release returns the heap's word store and page-map nodes to their pools
// once its run is over and every reader of its state is done. The heap
// must not be used afterwards; Space's sbrk counters stay readable.
func (h *Heap) Release() {
	h.Space.Release()
	h.PageHeap.PageMap().Release()
}

// NewThread registers a new thread cache.
func (h *Heap) NewThread() *ThreadCache {
	tc := newThreadCache(h, len(h.threads))
	tc.stackAddr = h.Arena.Alloc(4096, 64)
	tc.tlsAddr = h.Arena.Alloc(8, 8)
	tc.sampler = NewSampler(h.rng.Fork(), h.Cfg.SampleInterval, h.Arena.Alloc(64, 64))
	h.threads = append(h.threads, tc)
	return tc
}

// mcFor resolves the malloc cache a call from tc should use: the thread's
// core-local cache when installed (multicore engine), else the heap's.
func (h *Heap) mcFor(tc *ThreadCache) *core.MallocCache {
	if tc != nil && tc.MC != nil {
		return tc.MC
	}
	return h.MC
}

// hwFor resolves the sampling PMU counter like mcFor.
func (h *Heap) hwFor(tc *ThreadCache) *core.SampleCounter {
	if tc != nil && tc.HW != nil {
		return tc.HW
	}
	return h.HWCounter
}

// emFor resolves the trace emitter a call from tc writes to: the thread's
// core-local emitter when installed, else the heap's shared one.
func (h *Heap) emFor(tc *ThreadCache) *uop.Emitter {
	if tc != nil && tc.Em != nil {
		return tc.Em
	}
	return h.Em
}

// StatsSnapshot returns the heap-level event counts summed with every
// thread cache's shard. Hot paths bump the calling thread's shard;
// readers (metrics closures, results, tests) see the merged view here.
func (h *Heap) StatsSnapshot() HeapStats {
	s := h.Stats
	for _, tc := range h.threads {
		s.Mallocs += tc.Stats.Mallocs
		s.Frees += tc.Stats.Frees
		s.FastHits += tc.Stats.FastHits
		s.CentralFetches += tc.Stats.CentralFetches
		s.LargeMallocs += tc.Stats.LargeMallocs
		s.LargeFrees += tc.Stats.LargeFrees
		s.Sampled += tc.Stats.Sampled
	}
	return s
}

// RegisterMetrics adds every allocator tier's counters to reg: top-level
// events under "heap.*", the span allocator under "pageheap.*", the central
// free lists (aggregated across size classes) under "central.*", the thread
// caches (aggregated across threads) under "tc.*", the sampling machinery
// under "sampler.*", and — in ModeMallacc — the malloc cache under "mc.*".
// Aggregation closures read live state, so threads registered after this
// call are still counted.
func (h *Heap) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("heap.mallocs", func() uint64 { return h.StatsSnapshot().Mallocs })
	reg.Counter("heap.frees", func() uint64 { return h.StatsSnapshot().Frees })
	reg.Counter("heap.fast_hits", func() uint64 { return h.StatsSnapshot().FastHits })
	reg.Counter("heap.central_fetches", func() uint64 { return h.StatsSnapshot().CentralFetches })
	reg.Counter("heap.large_mallocs", func() uint64 { return h.StatsSnapshot().LargeMallocs })
	reg.Counter("heap.large_frees", func() uint64 { return h.StatsSnapshot().LargeFrees })
	reg.Counter("heap.sampled", func() uint64 { return h.StatsSnapshot().Sampled })

	ph := h.PageHeap
	reg.Counter("pageheap.spans.allocated", func() uint64 { return ph.SpansAllocated })
	reg.Counter("pageheap.spans.freed", func() uint64 { return ph.SpansFreed })
	reg.Counter("pageheap.spans.split", func() uint64 { return ph.SpansSplit })
	reg.Counter("pageheap.grow_calls", func() uint64 { return ph.GrowCalls })
	reg.Gauge("pageheap.free_pages", func() float64 { return float64(ph.FreePages) })

	central := func(read func(*CentralFreeList) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range h.Central {
				if c != nil {
					t += read(c)
				}
			}
			return t
		}
	}
	reg.Counter("central.transfer.hits", central(func(c *CentralFreeList) uint64 { return c.TransferHits }))
	reg.Counter("central.transfer.misses", central(func(c *CentralFreeList) uint64 { return c.TransferMisses }))
	reg.Counter("central.spans.requested", central(func(c *CentralFreeList) uint64 { return c.SpansRequested }))
	reg.Counter("central.spans.returned", central(func(c *CentralFreeList) uint64 { return c.SpansReturned }))
	reg.Gauge("central.free_objects", func() float64 {
		var t int
		for _, c := range h.Central {
			if c != nil {
				t += c.FreeObjects
			}
		}
		return float64(t)
	})

	thread := func(read func(*ThreadCache) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, tc := range h.threads {
				t += read(tc)
			}
			return t
		}
	}
	reg.Counter("tc.hits", thread(func(tc *ThreadCache) uint64 { return tc.Hits }))
	reg.Counter("tc.misses", thread(func(tc *ThreadCache) uint64 { return tc.Misses }))
	reg.Counter("tc.scavenges", thread(func(tc *ThreadCache) uint64 { return tc.Scavenges }))
	reg.Counter("tc.list_too_longs", thread(func(tc *ThreadCache) uint64 { return tc.ListTooLongs }))
	reg.Gauge("tc.hit_rate", func() float64 {
		var hits, misses uint64
		for _, tc := range h.threads {
			hits += tc.Hits
			misses += tc.Misses
		}
		return telemetry.Ratio(hits, misses)
	})
	reg.Counter("sampler.samples", thread(func(tc *ThreadCache) uint64 { return tc.sampler.Samples }))

	if h.HWCounter != nil {
		reg.Counter("sampler.hw.interrupts", func() uint64 { return h.HWCounter.Interrupts })
		reg.Counter("sampler.hw.bytes", func() uint64 { return h.HWCounter.BytesAccumulated })
	}
	if h.MC != nil {
		h.MC.RegisterMetrics(reg)
	}
}

// Malloc services one allocation request from thread tc, emitting the
// call's micro-ops into h.Em, and returns the simulated address.
//
// Contract in ModeMallacc: the malloc cache models a single in-core
// structure, so changing the active thread between calls must be
// accompanied by a malloc-cache Flush — on real hardware that change is a
// context switch, and Sec. 4.1's flush rule applies. Violations are
// detected and panic ("malloc cache out of sync").
func (h *Heap) Malloc(tc *ThreadCache, size uint64) uint64 {
	e := h.emFor(tc)
	tc.Stats.Mallocs++
	if size == 0 {
		size = 1
	}

	// Function prologue: save callee-saved registers, set up the frame and
	// arguments (the fast path is ~40 static x86 instructions, Sec. 3.3).
	e.Step(uop.StepCallOverhead)
	e.Store(tc.stackAddr, uop.NoDep, uop.NoDep)
	e.Store(tc.stackAddr+8, uop.NoDep, uop.NoDep)
	e.Store(tc.stackAddr+16, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)

	// Thread-cache pointer from TLS.
	e.Step(uop.StepOther)
	tls := e.Load(tc.tlsAddr, uop.NoDep)

	// Small-size check.
	cmp := e.ALU(uop.NoDep, uop.NoDep)
	if size > MaxSize {
		e.Branch(siteIsSmall, true, cmp)
		addr := h.mallocLarge(e, tc, size)
		h.emitEpilogue(e, tc)
		return addr
	}
	e.Branch(siteIsSmall, false, cmp)

	// Step 1: size class (Fig. 3 / Fig. 5 / Fig. 10).
	class, rounded, classDep, _ := h.sizeClassStep(e, tc, size)

	// Step 2: sampling (Fig. 3 / Sec. 4.2).
	h.samplingStep(e, tc, size)

	// Step 3: pop the free-list head (Fig. 7 / Fig. 12). The list address
	// needs only the size class, not the rounded size, so it depends on
	// the class lookup alone.
	la := e.ALU(classDep, tls) // address of the class's free list
	result := h.popStep(e, tc, class, rounded, classDep, la)

	// Metadata updates and epilogue (part of the non-accelerated ~50%).
	// The metadata address derives from the class register directly, in
	// parallel with the list walk.
	e.Step(uop.StepOther)
	tc.metaUpdateEmit(e, class, classDep)
	h.emitEpilogue(e, tc)
	return result
}

// sizeClassStep computes (class, rounded size) emitting either the
// baseline table walk or the mcszlookup/mcszupdate pair. classDep is the
// op producing the size class (used for free-list addressing), sizeDep the
// op producing the rounded size (used only for byte accounting).
func (h *Heap) sizeClassStep(e *uop.Emitter, tc *ThreadCache, size uint64) (class uint8, rounded uint64, classDep, sizeDep uop.Val) {
	e.Step(uop.StepSizeClass)
	class, rounded, _ = h.SizeMap.ClassFor(size)
	mc := h.mcFor(tc)
	if mc == nil {
		classDep, sizeDep = h.emitSWSizeClass(e, size, class)
		return class, rounded, classDep, sizeDep
	}
	key, hiKey := size, rounded
	var lat uint8
	if mc.Config().IndexMode {
		key = ClassIndex(size)
		hiKey = ClassIndex(rounded)
		lat = 2 // dedicated index hardware adds one cycle (Sec. 4.1)
	}
	if h.Cfg.Ablate.NoSizeCache {
		// Size-cache ablation: always compute in software, but keep the
		// entries maintained so the list cache still has somewhere to
		// live.
		clsDep, swDep := h.emitSWSizeClass(e, size, class)
		entry := mc.SzUpdate(key, hiKey, rounded, class)
		e.Mallacc(uop.McSzUpdate, entry, false, 0, swDep, 0)
		return class, rounded, clsDep, swDep
	}
	entry, cls, alloc, ok := mc.SzLookup(key)
	szDep := e.Mallacc(uop.McSzLookup, entry, ok, 0, uop.NoDep, lat)
	e.Branch(siteMcSzHit, !ok, szDep) // fall back on miss
	if ok {
		if cls != class || alloc != rounded {
			panic(fmt.Sprintf("tcmalloc: malloc cache returned class %d/%d for size %d (want %d/%d)",
				cls, alloc, size, class, rounded))
		}
		return class, rounded, szDep, szDep
	}
	clsDep, swDep := h.emitSWSizeClass(e, size, class)
	entry = mc.SzUpdate(key, hiKey, rounded, class)
	e.Mallacc(uop.McSzUpdate, entry, false, 0, swDep, 0)
	return class, rounded, clsDep, swDep
}

// emitSWSizeClass emits the Figure 5 software sequence: compare+branch on
// the small threshold, add+shift to form the index, then the two dependent
// table loads. It returns the class-producing and size-producing loads.
func (h *Heap) emitSWSizeClass(e *uop.Emitter, size uint64, class uint8) (classDep, sizeDep uop.Val) {
	cmp := e.ALU(uop.NoDep, uop.NoDep)
	e.Branch(siteSizeBranch, size > MaxSmallSize, cmp)
	idx := e.ALU(uop.NoDep, uop.NoDep) // add
	idx = e.ALU(idx, uop.NoDep)        // shift
	l1 := e.Load(h.SizeMap.ClassArrayAddr()+ClassIndex(size), idx)
	l2 := e.Load(h.SizeMap.ClassToSizeAddr()+uint64(class)*8, l1)
	return l1, l2
}

// emitFreeSizeClass emits free()'s sized-delete class computation: it needs
// only the class, not the rounded size, so it is one table load. Figure 12
// shows free is not accelerated here — the class arrives in a register —
// so both modes emit the same software sequence.
func (h *Heap) emitFreeSizeClass(e *uop.Emitter, size uint64, class uint8) uop.Val {
	cmp := e.ALU(uop.NoDep, uop.NoDep)
	e.Branch(siteSizeBranch, size > MaxSmallSize, cmp)
	idx := e.ALU(uop.NoDep, uop.NoDep)
	idx = e.ALU(idx, uop.NoDep)
	return e.Load(h.SizeMap.ClassArrayAddr()+ClassIndex(size), idx)
}

// samplingStep performs the per-allocation sampling work: the software
// counter sequence in baseline, the PMU counter (no fast-path work) with
// Mallacc. A triggered sample pays the capture cost in both modes.
func (h *Heap) samplingStep(e *uop.Emitter, tc *ThreadCache, size uint64) {
	if h.Cfg.SampleInterval <= 0 {
		return
	}
	// Which allocations get sampled is a property of the sampler's
	// exponential draw stream, identical in every configuration; the
	// accelerator only changes *how* the countdown is maintained: a PMU
	// counter off the fast path instead of the per-call load/decrement/
	// compare/store sequence.
	sampled := tc.sampler.Account(size)
	if hw := h.hwFor(tc); hw != nil && !h.Cfg.Ablate.NoHWSampler {
		// The PMU counter mirrors the sampler's countdown exactly; only
		// its statistics are tracked here — no fast-path micro-ops.
		hw.BytesAccumulated += size
		if sampled {
			hw.Interrupts++
		}
	} else {
		e.Step(uop.StepSampling)
		c := e.Load(tc.sampler.CounterAddr(), uop.NoDep)
		a := e.ALU(c, uop.NoDep)
		e.Store(tc.sampler.CounterAddr(), a, uop.NoDep)
		e.Branch(siteSampleCheck, sampled, a)
	}
	if sampled {
		tc.Stats.Sampled++
		h.emitSampledAllocation(e, tc)
	}
}

// emitSampledAllocation charges the stack-trace capture of a sampled
// allocation: a serial unwind through the stack plus bookkeeping.
func (h *Heap) emitSampledAllocation(e *uop.Emitter, tc *ThreadCache) {
	prev := e.Step(uop.StepOther)
	dep := uop.NoDep
	for i := 0; i < 32; i++ {
		dep = e.Load(tc.stackAddr+uint64(i)*16, dep)
		dep = e.ALU(dep, uop.NoDep)
	}
	for i := 0; i < 6; i++ {
		dep = e.ALUWithLat(150, dep, uop.NoDep)
	}
	e.Step(prev)
}

// popStep removes and returns the head of class's free list via the mode's
// fast path, falling back to the central caches when empty.
func (h *Heap) popStep(e *uop.Emitter, tc *ThreadCache, class uint8, rounded uint64, classDep, la uop.Val) uint64 {
	e.Step(uop.StepPushPop)
	l := &tc.lists[class]
	var result uint64
	var popDep uop.Val

	if mc := h.mcFor(tc); mc != nil && !h.Cfg.Ablate.NoListCache {
		// mchdpop takes only the size class (Fig. 12); the list address is
		// needed just for the head-update store, off the critical path.
		entry, hd, nx, ok := mc.HdPop(class)
		popDep = e.Mallacc(uop.McHdPop, entry, ok, 0, classDep, 0)
		e.Branch(siteMcPopHit, !ok, popDep)
		switch {
		case ok && mc.Config().NoNextSlot:
			// Head-only ablation: the cached head avoids the head-pointer
			// load, but software must still execute the dependent *head
			// load to find the next element — the latency the full design
			// removes.
			realHead := h.Space.ReadWord(l.headAddr)
			if hd != realHead {
				panic(fmt.Sprintf("tcmalloc: malloc cache (head-only) out of sync on class %d: cached %#x real %#x",
					class, hd, realHead))
			}
			next := h.Space.ReadWord(hd)
			nDep := e.Load(hd, popDep)
			e.Store(l.headAddr, la, nDep)
			h.Space.WriteWord(l.headAddr, next)
			l.length--
			tc.size -= rounded
			tc.Hits++
			tc.Stats.FastHits++
			result = hd
		case ok:
			// Validate the model's core invariant: cached copies always
			// mirror the real list.
			realHead := h.Space.ReadWord(l.headAddr)
			if hd != realHead || nx != h.Space.ReadWord(hd) {
				panic(fmt.Sprintf("tcmalloc: malloc cache out of sync on class %d: cached (%#x,%#x) real (%#x,%#x)",
					class, hd, nx, realHead, h.Space.ReadWord(realHead)))
			}
			// Software updates the real head without touching *head —
			// the long-latency load the accelerator removes.
			e.Store(l.headAddr, la, popDep)
			h.Space.WriteWord(l.headAddr, nx)
			l.length--
			tc.size -= rounded
			tc.Hits++
			tc.Stats.FastHits++
			result = hd
		default:
			result = h.popFallback(e, tc, class, la)
		}
		// mcnxtprefetch on the way out (Fig. 12 malloc_ret): refill the
		// cached pair from the new real head.
		if newHead := h.Space.ReadWord(l.headAddr); newHead != 0 {
			v := h.Space.ReadWord(newHead)
			en := mc.NxtPrefetch(class, newHead, v)
			e.Mallacc(uop.McNxtPrefetch, en, en >= 0, newHead, popDep, 0)
		}
		return result
	}

	// Baseline: load head, test, pop or refill.
	hDep := e.Load(l.headAddr, la)
	if l.length == 0 {
		e.Branch(siteListEmpty, true, hDep)
		return h.centralFetch(e, tc, class)
	}
	e.Branch(siteListEmpty, false, hDep)
	head := h.Space.ReadWord(l.headAddr)
	next := h.Space.ReadWord(head)
	nDep := e.Load(head, hDep) // the dependent *head load (Fig. 7)
	e.Store(l.headAddr, nDep, uop.NoDep)
	h.Space.WriteWord(l.headAddr, next)
	l.length--
	tc.size -= rounded
	tc.Hits++
	tc.Stats.FastHits++
	return head
}

// popFallback is the Mallacc miss path: the original software pop
// (cache_fallback in Fig. 12), or a central-cache refill if the real list
// is empty too.
func (h *Heap) popFallback(e *uop.Emitter, tc *ThreadCache, class uint8, la uop.Val) uint64 {
	l := &tc.lists[class]
	hDep := e.Load(l.headAddr, la)
	if l.length == 0 {
		e.Branch(siteListEmpty, true, hDep)
		return h.centralFetch(e, tc, class)
	}
	e.Branch(siteListEmpty, false, hDep)
	head := h.Space.ReadWord(l.headAddr)
	next := h.Space.ReadWord(head)
	nDep := e.Load(head, hDep)
	e.Store(l.headAddr, nDep, uop.NoDep)
	h.Space.WriteWord(l.headAddr, next)
	l.length--
	tc.size -= h.SizeMap.ClassSize(class)
	tc.Hits++
	tc.Stats.FastHits++
	return head
}

// centralFetch refills from the central list; everything below the thread
// cache is tagged StepOther so the limit study only removes fast-path work.
func (h *Heap) centralFetch(e *uop.Emitter, tc *ThreadCache, class uint8) uint64 {
	prev := e.Step(uop.StepOther)
	tc.Stats.CentralFetches++
	result := tc.fetchFromCentral(e, class)
	e.Step(prev)
	return result
}

// mallocLarge allocates size bytes directly as a span ("Large requests
// (> 256KB) go directly to spans and bypass the prior caches", Sec. 3.1).
func (h *Heap) mallocLarge(e *uop.Emitter, tc *ThreadCache, size uint64) uint64 {
	prev := e.Step(uop.StepOther)
	tc.Stats.LargeMallocs++
	pages := mem.RoundUp(size, mem.PageSize) >> mem.PageShift
	s := h.PageHeap.New(e, pages)
	e.Step(prev)
	return s.StartAddr()
}

// Free returns ptr to the allocator. size is the sized-delete hint (pass
// the allocation's requested size; 0 means unknown, forcing the page-map
// walk).
func (h *Heap) Free(tc *ThreadCache, ptr uint64, size uint64) {
	e := h.emFor(tc)
	tc.Stats.Frees++

	// Prologue.
	e.Step(uop.StepCallOverhead)
	e.Store(tc.stackAddr, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(tc.tlsAddr, uop.NoDep)

	var class uint8
	var classDep uop.Val
	if h.Cfg.SizedDelete && size > 0 && size <= MaxSize {
		// Sized delete: size class recomputed from the size in software in
		// both modes (Fig. 12's free receives the class in a register; the
		// accelerator contributes only mchdpush on this side).
		e.Step(uop.StepSizeClass)
		class, _, _ = h.SizeMap.ClassFor(size)
		classDep = h.emitFreeSizeClass(e, size, class)
		e.Branch(siteFreeSmall, false, classDep)
	} else {
		// Page-map walk: the poorly-caching address->size-class lookup.
		span, walkDep := h.PageHeap.PageMap().EmitGet(e, ptr>>mem.PageShift, tls)
		if span == nil {
			panic(fmt.Sprintf("tcmalloc: free of unknown pointer %#x", ptr))
		}
		classDep = e.Load(span.MetaAddr, walkDep)
		class = span.SizeClass
		if class == 0 {
			// Large allocation: give the pages back.
			e.Branch(siteFreeSmall, true, classDep)
			tc.Stats.LargeFrees++
			prev := e.Step(uop.StepOther)
			h.PageHeap.Delete(e, span)
			e.Step(prev)
			h.emitEpilogue(e, tc)
			return
		}
		e.Branch(siteFreeSmall, false, classDep)
	}

	// Push onto the thread-local list (Fig. 7's push sequence). The real
	// list is always updated in software; with Mallacc, mchdpush
	// additionally refreshes the cached pair (Fig. 12's free).
	e.Step(uop.StepPushPop)
	la := e.ALU(classDep, tls)
	hDep := tc.pushEmit(e, class, ptr, la)
	if mc := h.mcFor(tc); mc != nil && !h.Cfg.Ablate.NoListCache {
		en := mc.HdPush(class, ptr)
		e.Mallacc(uop.McHdPush, en, en >= 0, 0, hDep, 0)
	}

	// Metadata, overflow checks, scavenging.
	e.Step(uop.StepOther)
	tc.metaUpdateEmit(e, class, la)
	l := &tc.lists[class]
	mDep := e.Load(tc.listMetaAddr(class), la)
	if l.length > l.maxLen {
		e.Branch(siteListTooLong, true, mDep)
		prev := e.Step(uop.StepOther)
		tc.listTooLong(e, class)
		e.Step(prev)
	} else {
		e.Branch(siteListTooLong, false, mDep)
	}
	if tc.size > maxThreadCacheSize {
		e.Branch(siteCacheTooBig, true, mDep)
		prev := e.Step(uop.StepOther)
		tc.scavenge(e)
		e.Step(prev)
	} else {
		e.Branch(siteCacheTooBig, false, mDep)
	}
	h.emitEpilogue(e, tc)
}

// emitEpilogue handles the return value, restores registers and returns.
func (h *Heap) emitEpilogue(e *uop.Emitter, tc *ThreadCache) {
	// Return-value move.
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepCallOverhead)
	e.Load(tc.stackAddr, uop.NoDep)
	e.Load(tc.stackAddr+8, uop.NoDep)
	e.Load(tc.stackAddr+16, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
}

// CheckInvariants validates the whole allocator: thread caches, central
// lists and the page heap.
func (h *Heap) CheckInvariants() {
	for _, tc := range h.threads {
		tc.CheckInvariants()
	}
	for c := 1; c < len(h.Central); c++ {
		h.Central[c].CheckInvariants()
	}
	h.PageHeap.CheckInvariants()
}
