package jemalloc

import (
	"fmt"

	"mallacc/internal/core"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Branch sites (the CPU predictor is shared with nothing else — sites only
// need to be distinct within a trace stream).
const (
	siteSmall uint32 = iota + 100
	siteSzBranch
	siteSample
	siteBinEmpty
	siteMcSzHit
	siteMcPopHit
	siteBinFull
	siteSlabHasFree
	siteFillLoop
	siteFlushLoop
	siteBitmapScan
)

// Tunables, following jemalloc's shape.
const (
	// maxCached is the tcache bin capacity (jemalloc's nslots for small
	// bins, scaled down to keep simulations brisk).
	maxCached = 64
	// fillCount is how many regions a fill brings in.
	fillCount = 16
	// flushCount is how many regions an overflowing bin flushes.
	flushCount = 32
)

// Config parameterizes a jemalloc-style heap. Mode semantics match the
// TCMalloc substrate: ModeMallacc enables the five accelerator
// instructions on the fast path.
type Config struct {
	Mode           tcmalloc.Mode
	MallocCache    core.Config
	SampleInterval int64
	Seed           uint64
}

// DefaultConfig returns a baseline configuration.
func DefaultConfig() Config {
	return Config{
		Mode:           tcmalloc.ModeBaseline,
		MallocCache:    core.DefaultConfig(),
		SampleInterval: tcmalloc.DefaultSampleInterval,
		Seed:           1,
	}
}

// HeapStats counts allocator events.
type HeapStats struct {
	Mallocs    uint64
	Frees      uint64
	TcacheHits uint64
	Fills      uint64
	Flushes    uint64
	SlabsMade  uint64
	LargeAlloc uint64
	Sampled    uint64
}

// slab is a run of pages carved into equal regions tracked by a bitmap in
// simulated memory.
type slab struct {
	span       *tcmalloc.Span
	class      int
	regionSize uint64
	regions    int
	nfree      int
	bitmapAddr uint64
	words      int

	prev, next *slab
}

// slabList is an intrusive list of slabs.
type slabList struct{ head *slab }

func (l *slabList) push(s *slab) {
	s.prev, s.next = nil, l.head
	if l.head != nil {
		l.head.prev = s
	}
	l.head = s
}

func (l *slabList) remove(s *slab) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	s.prev, s.next = nil, nil
}

// arenaBin is the shared per-class pool: a current slab plus a list of
// other slabs with free regions.
type arenaBin struct {
	class    int
	lockAddr uint64
	current  *slab
	nonfull  slabList
	// slabOf maps region page IDs to slabs via the shared page map; kept
	// here only for statistics.
	Slabs int
}

// tbin is one tcache bin: a stack of cached region pointers living in
// simulated memory, with a header word (ncached and stats) ahead of it.
type tbin struct {
	headerAddr uint64 // tbin metadata word (ncached, stats)
	availAddr  uint64 // base of the pointer array
	ncached    int
}

// ThreadCache is a jemalloc tcache.
type ThreadCache struct {
	ID        int
	heap      *Heap
	bins      []tbin
	stackAddr uint64
	tlsAddr   uint64
	sampler   *tcmalloc.Sampler

	Hits, Misses uint64
}

// Heap is the jemalloc-style allocator instance.
type Heap struct {
	Space    *mem.Space
	Arena    *mem.Arena
	SC       *SizeClasses
	PageHeap *tcmalloc.PageHeap
	Bins     []*arenaBin

	MC        *core.MallocCache
	HWCounter *core.SampleCounter
	Em        *uop.Emitter

	Cfg     Config
	rng     *stats.RNG
	threads []*ThreadCache
	slabOf  map[uint64]*slab // span start page -> slab
	Stats   HeapStats

	sz2idxTabAddr uint64
}

// New builds a heap over a fresh simulated address space.
func New(cfg Config) *Heap {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 8<<20)
	h := &Heap{
		Space:  space,
		Arena:  arena,
		SC:     NewSizeClasses(),
		Cfg:    cfg,
		rng:    stats.NewRNG(cfg.Seed ^ 0x9e3a),
		Em:     uop.NewEmitter(),
		slabOf: map[uint64]*slab{},
	}
	h.PageHeap = tcmalloc.NewPageHeap(space, arena, tcmalloc.NewPageMap(arena))
	h.sz2idxTabAddr = arena.Alloc(4096/8, 64) // sz_size2index_tab for <=4KB
	h.Bins = make([]*arenaBin, h.SC.NumClasses())
	for c := range h.Bins {
		h.Bins[c] = &arenaBin{class: c, lockAddr: arena.Alloc(64, 64)}
	}
	if cfg.Mode == tcmalloc.ModeMallacc {
		h.MC = core.New(cfg.MallocCache)
		h.HWCounter = &core.SampleCounter{}
	}
	return h
}

// NewThread registers a tcache.
func (h *Heap) NewThread() *ThreadCache {
	tc := &ThreadCache{
		ID:        len(h.threads),
		heap:      h,
		bins:      make([]tbin, h.SC.NumClasses()),
		stackAddr: h.Arena.Alloc(4096, 64),
		tlsAddr:   h.Arena.Alloc(8, 8),
		sampler:   tcmalloc.NewSampler(h.rng.Fork(), h.Cfg.SampleInterval, h.Arena.Alloc(64, 64)),
	}
	for c := range tc.bins {
		base := h.Arena.Alloc(maxCached*8+64, 64)
		tc.bins[c].headerAddr = base
		tc.bins[c].availAddr = base + 64
	}
	h.threads = append(h.threads, tc)
	return tc
}

// RegisterMetrics adds the allocator's event counters to reg under
// "heap.*" (and "mc.*" in accelerated mode).
func (h *Heap) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("heap.mallocs", func() uint64 { return h.Stats.Mallocs })
	reg.Counter("heap.frees", func() uint64 { return h.Stats.Frees })
	reg.Counter("heap.tcache_hits", func() uint64 { return h.Stats.TcacheHits })
	reg.Counter("heap.fills", func() uint64 { return h.Stats.Fills })
	reg.Counter("heap.flushes", func() uint64 { return h.Stats.Flushes })
	reg.Counter("heap.slabs_made", func() uint64 { return h.Stats.SlabsMade })
	reg.Counter("heap.large_mallocs", func() uint64 { return h.Stats.LargeAlloc })
	reg.Counter("heap.sampled", func() uint64 { return h.Stats.Sampled })
	if h.MC != nil {
		h.MC.RegisterMetrics(reg)
	}
}

// Malloc services one request, emitting its micro-ops into h.Em.
func (h *Heap) Malloc(tc *ThreadCache, size uint64) uint64 {
	e := h.Em
	h.Stats.Mallocs++
	if size == 0 {
		size = 1
	}

	// Prologue + tcache pointer.
	e.Step(uop.StepCallOverhead)
	e.Store(tc.stackAddr, uop.NoDep, uop.NoDep)
	e.Store(tc.stackAddr+8, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(tc.tlsAddr, uop.NoDep)

	cmp := e.ALU(uop.NoDep, uop.NoDep)
	if size > MaxSmall {
		e.Branch(siteSmall, true, cmp)
		h.Stats.LargeAlloc++
		prev := e.Step(uop.StepOther)
		pages := mem.RoundUp(size, mem.PageSize) >> mem.PageShift
		s := h.PageHeap.New(e, pages)
		e.Step(prev)
		h.emitEpilogue(tc)
		return s.StartAddr()
	}
	e.Branch(siteSmall, false, cmp)

	class, rounded, classDep := h.sizeClassStep(size)
	h.samplingStep(tc, size)

	ba := e.ALU(classDep, tls) // tbin address
	result := h.popStep(tc, class, rounded, classDep, ba)

	// Bin stats update.
	e.Step(uop.StepOther)
	b := &tc.bins[class]
	m := e.Load(b.headerAddr, ba) // tbin header word
	e.Store(b.headerAddr, e.ALU(m, uop.NoDep), uop.NoDep)
	h.emitEpilogue(tc)
	return result
}

// sizeClassStep computes the class; baseline emits jemalloc's
// sz_size2index table load (for <=4 KiB) or group arithmetic, Mallacc uses
// mcszlookup keyed on the raw size (no TCMalloc index hardware here —
// exactly the generic mode of Sec. 4.1).
func (h *Heap) sizeClassStep(size uint64) (class int, rounded uint64, dep uop.Val) {
	e := h.Em
	e.Step(uop.StepSizeClass)
	class, ok := h.SC.Size2Index(size)
	if !ok {
		panic("jemalloc: large size in small path")
	}
	rounded = h.SC.ClassSize(class)
	if h.MC != nil {
		entry, cls, alloc, hit := h.MC.SzLookup(size)
		szDep := e.Mallacc(uop.McSzLookup, entry, hit, 0, uop.NoDep, 0)
		e.Branch(siteMcSzHit, !hit, szDep)
		if hit {
			if int(cls) != class || alloc != rounded {
				panic(fmt.Sprintf("jemalloc: malloc cache returned %d/%d for size %d (want %d/%d)",
					cls, alloc, size, class, rounded))
			}
			return class, rounded, szDep
		}
		swDep := h.emitSWSize2Index(size)
		entry = h.MC.SzUpdate(size, rounded, rounded, uint8(class))
		e.Mallacc(uop.McSzUpdate, entry, false, 0, swDep, 0)
		return class, rounded, swDep
	}
	return class, rounded, h.emitSWSize2Index(size)
}

func (h *Heap) emitSWSize2Index(size uint64) uop.Val {
	e := h.Em
	cmp := e.ALU(uop.NoDep, uop.NoDep)
	if size <= 4096 {
		// sz_size2index_tab lookup.
		e.Branch(siteSzBranch, false, cmp)
		idx := e.ALU(uop.NoDep, uop.NoDep)
		return e.Load(h.sz2idxTabAddr+(size>>3), idx)
	}
	// Group arithmetic: lg, shifts, adds.
	e.Branch(siteSzBranch, true, cmp)
	return e.ALUChain(4, uop.NoDep)
}

func (h *Heap) samplingStep(tc *ThreadCache, size uint64) {
	if h.Cfg.SampleInterval <= 0 {
		return
	}
	e := h.Em
	sampled := tc.sampler.Account(size)
	if h.HWCounter != nil {
		h.HWCounter.BytesAccumulated += size
		if sampled {
			h.HWCounter.Interrupts++
		}
	} else {
		e.Step(uop.StepSampling)
		c := e.Load(tc.sampler.CounterAddr(), uop.NoDep)
		a := e.ALU(c, uop.NoDep)
		e.Store(tc.sampler.CounterAddr(), a, uop.NoDep)
		e.Branch(siteSample, sampled, a)
	}
	if sampled {
		h.Stats.Sampled++
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
}

// popStep takes the top of the tcache stack: baseline loads the count and
// the top slot (two dependent loads); Mallacc's mchdpop supplies the top
// two values directly.
func (h *Heap) popStep(tc *ThreadCache, class int, rounded uint64, classDep, ba uop.Val) uint64 {
	e := h.Em
	e.Step(uop.StepPushPop)
	b := &tc.bins[class]

	if h.MC != nil {
		_, hd, _, ok := h.MC.HdPop(uint8(class))
		popDep := e.Mallacc(uop.McHdPop, h.mcEntry(class), ok, 0, classDep, 0)
		e.Branch(siteMcPopHit, !ok, popDep)
		var result uint64
		if ok {
			real := h.Space.ReadWord(b.availAddr + uint64(b.ncached-1)*8)
			if hd != real {
				panic(fmt.Sprintf("jemalloc: malloc cache out of sync on class %d: cached %#x real %#x", class, hd, real))
			}
			// Software only decrements ncached; no slot load needed.
			e.Store(b.headerAddr, ba, popDep)
			h.Space.WriteWord(b.availAddr+uint64(b.ncached-1)*8, 0)
			b.ncached--
			tc.Hits++
			h.Stats.TcacheHits++
			result = hd
		} else {
			result = h.popFallback(tc, class, ba)
		}
		// Refill the cached pair from the array: prefetch the slot below
		// the new top.
		if b.ncached >= 2 {
			slot := b.availAddr + uint64(b.ncached-2)*8
			v := h.Space.ReadWord(slot)
			en := h.MC.PrefetchValue(uint8(class), v)
			e.Mallacc(uop.McNxtPrefetch, en, en >= 0, slot, popDep, 0)
		}
		return result
	}

	nDep := e.Load(b.headerAddr, ba) // ncached
	if b.ncached == 0 {
		e.Branch(siteBinEmpty, true, nDep)
		return h.fill(tc, class)
	}
	e.Branch(siteBinEmpty, false, nDep)
	slot := b.availAddr + uint64(b.ncached-1)*8
	v := h.Space.ReadWord(slot)
	vDep := e.Load(slot, nDep) // dependent: address comes from ncached
	e.Store(b.headerAddr, vDep, uop.NoDep)
	h.Space.WriteWord(slot, 0)
	b.ncached--
	tc.Hits++
	h.Stats.TcacheHits++
	return v
}

// mcEntry returns the malloc-cache entry index for a class (for uop
// bookkeeping), or -1.
func (h *Heap) mcEntry(class int) int { return h.MC.FindClass(uint8(class)) }

func (h *Heap) popFallback(tc *ThreadCache, class int, ba uop.Val) uint64 {
	e := h.Em
	b := &tc.bins[class]
	nDep := e.Load(b.headerAddr, ba)
	if b.ncached == 0 {
		e.Branch(siteBinEmpty, true, nDep)
		return h.fill(tc, class)
	}
	e.Branch(siteBinEmpty, false, nDep)
	slot := b.availAddr + uint64(b.ncached-1)*8
	v := h.Space.ReadWord(slot)
	vDep := e.Load(slot, nDep)
	e.Store(b.headerAddr, vDep, uop.NoDep)
	h.Space.WriteWord(slot, 0)
	b.ncached--
	tc.Hits++
	h.Stats.TcacheHits++
	return v
}

// Free returns a region to the tcache, flushing to the arena when full.
func (h *Heap) Free(tc *ThreadCache, ptr uint64, size uint64) {
	e := h.Em
	h.Stats.Frees++

	e.Step(uop.StepCallOverhead)
	e.Store(tc.stackAddr, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(tc.tlsAddr, uop.NoDep)

	var class int
	var classDep uop.Val
	if size > 0 && size <= MaxSmall {
		e.Step(uop.StepSizeClass)
		class, _ = h.SC.Size2Index(size)
		classDep = h.emitSWSize2Index(size)
	} else {
		// Radix walk to the owning slab/span.
		span, dep := h.PageHeap.PageMap().EmitGet(e, ptr>>mem.PageShift, tls)
		if span == nil {
			panic(fmt.Sprintf("jemalloc: free of unknown pointer %#x", ptr))
		}
		sl := h.slabOf[span.Start]
		if sl == nil {
			// Large allocation: pages go straight back.
			e.Branch(siteSmall, true, dep)
			prev := e.Step(uop.StepOther)
			h.PageHeap.Delete(e, span)
			e.Step(prev)
			h.emitEpilogue(tc)
			return
		}
		e.Branch(siteSmall, false, dep)
		class = sl.class
		classDep = e.Load(span.MetaAddr, dep)
	}

	e.Step(uop.StepPushPop)
	b := &tc.bins[class]
	ba := e.ALU(classDep, tls)
	nDep := e.Load(b.headerAddr, ba)
	if b.ncached == maxCached {
		e.Branch(siteBinFull, true, nDep)
		prev := e.Step(uop.StepOther)
		h.flush(tc, class)
		e.Step(prev)
	} else {
		e.Branch(siteBinFull, false, nDep)
	}
	slot := b.availAddr + uint64(b.ncached)*8
	e.Store(slot, nDep, uop.NoDep)
	e.Store(b.headerAddr, nDep, uop.NoDep)
	h.Space.WriteWord(slot, ptr)
	b.ncached++
	if h.MC != nil {
		en := h.MC.HdPush(uint8(class), ptr)
		e.Mallacc(uop.McHdPush, en, en >= 0, 0, nDep, 0)
	}
	h.emitEpilogue(tc)
}

func (h *Heap) emitEpilogue(tc *ThreadCache) {
	e := h.Em
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepCallOverhead)
	e.Load(tc.stackAddr, uop.NoDep)
	e.Load(tc.stackAddr+8, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
}

// fill pulls fillCount regions from the arena bin into the tcache stack
// and returns one to the caller.
func (h *Heap) fill(tc *ThreadCache, class int) uint64 {
	e := h.Em
	prev := e.Step(uop.StepOther)
	defer e.Step(prev)
	tc.Misses++
	h.Stats.Fills++
	bin := h.Bins[class]
	b := &tc.bins[class]

	lk := e.Load(bin.lockAddr, uop.NoDep)
	e.ALUWithLat(17, lk, uop.NoDep)

	got := 0
	for got < fillCount {
		region, ok := h.slabAlloc(e, bin)
		if !ok {
			break
		}
		slot := b.availAddr + uint64(b.ncached)*8
		h.Space.WriteWord(slot, region)
		e.Store(slot, uop.NoDep, uop.NoDep)
		b.ncached++
		got++
		e.Branch(siteFillLoop, got < fillCount, uop.NoDep)
	}
	e.Store(bin.lockAddr, uop.NoDep, uop.NoDep)
	if got == 0 {
		panic("jemalloc: fill got nothing")
	}
	// Hand the top region to the caller.
	slot := b.availAddr + uint64(b.ncached-1)*8
	v := h.Space.ReadWord(slot)
	h.Space.WriteWord(slot, 0)
	e.Load(slot, uop.NoDep)
	e.Store(b.headerAddr, uop.NoDep, uop.NoDep)
	b.ncached--
	// Re-seed the malloc cache pair from registers (two pushes): the
	// modified allocator knows the new top two values.
	if h.MC != nil && b.ncached >= 2 {
		top := h.Space.ReadWord(b.availAddr + uint64(b.ncached-1)*8)
		second := h.Space.ReadWord(b.availAddr + uint64(b.ncached-2)*8)
		h.MC.HdPush(uint8(class), second)
		h.MC.HdPush(uint8(class), top)
		e.Mallacc(uop.McHdPush, h.mcEntry(class), true, 0, uop.NoDep, 0)
		e.Mallacc(uop.McHdPush, h.mcEntry(class), true, 0, uop.NoDep, 0)
	}
	return v
}

// slabAlloc takes one region from the bin's current slab, moving through
// the nonfull list or a fresh slab as needed; the bitmap scan is the
// jemalloc-flavoured cost here.
func (h *Heap) slabAlloc(e *uop.Emitter, bin *arenaBin) (uint64, bool) {
	sl := bin.current
	if sl == nil || sl.nfree == 0 {
		if bin.nonfull.head != nil {
			e.Branch(siteSlabHasFree, true, uop.NoDep)
			sl = bin.nonfull.head
			bin.nonfull.remove(sl)
			bin.current = sl
		} else {
			e.Branch(siteSlabHasFree, false, uop.NoDep)
			sl = h.newSlab(e, bin.class)
			bin.current = sl
		}
	}
	// Bitmap scan: walk words until a free bit is found.
	var region uint64
	found := false
	dep := uop.NoDep
	for w := 0; w < sl.words && !found; w++ {
		wordAddr := sl.bitmapAddr + uint64(w)*8
		word := h.Space.ReadWord(wordAddr)
		dep = e.Load(wordAddr, dep)
		if word == ^uint64(0) {
			e.Branch(siteBitmapScan, true, dep)
			continue
		}
		e.Branch(siteBitmapScan, false, dep)
		bit := trailingOnes(word)
		idx := w*64 + bit
		if idx >= sl.regions {
			continue
		}
		h.Space.WriteWord(wordAddr, word|(uint64(1)<<uint(bit)))
		b := e.ALU(dep, uop.NoDep)
		e.Store(wordAddr, b, uop.NoDep)
		region = sl.span.StartAddr() + uint64(idx)*sl.regionSize
		found = true
	}
	if !found {
		panic("jemalloc: slab claimed free regions but bitmap is full")
	}
	sl.nfree--
	return region, true
}

func trailingOnes(w uint64) int {
	n := 0
	for w&1 == 1 {
		w >>= 1
		n++
	}
	return n
}

// newSlab carves a fresh slab for a class.
func (h *Heap) newSlab(e *uop.Emitter, class int) *slab {
	pages := h.SC.SlabPages(class)
	span := h.PageHeap.New(e, pages)
	size := h.SC.ClassSize(class)
	regions := int(span.ByteLen() / size)
	words := (regions + 63) / 64
	sl := &slab{
		span:       span,
		class:      class,
		regionSize: size,
		regions:    regions,
		nfree:      regions,
		bitmapAddr: h.Arena.Alloc(uint64(words)*8, 8),
		words:      words,
	}
	// Initialize the bitmap (zeroing stores).
	for w := 0; w < words; w++ {
		e.Store(sl.bitmapAddr+uint64(w)*8, uop.NoDep, uop.NoDep)
	}
	h.slabOf[span.Start] = sl
	h.Bins[class].Slabs++
	h.Stats.SlabsMade++
	return sl
}

// flush returns flushCount regions from the bottom of the stack to their
// slabs, sliding the remainder down.
func (h *Heap) flush(tc *ThreadCache, class int) {
	e := h.Em
	h.Stats.Flushes++
	b := &tc.bins[class]
	bin := h.Bins[class]
	lk := e.Load(bin.lockAddr, uop.NoDep)
	e.ALUWithLat(17, lk, uop.NoDep)

	n := flushCount
	if n > b.ncached {
		n = b.ncached
	}
	dep := uop.NoDep
	for i := 0; i < n; i++ {
		slot := b.availAddr + uint64(i)*8
		region := h.Space.ReadWord(slot)
		rDep := e.Load(slot, dep)
		h.slabFree(e, region, rDep)
		dep = rDep
		e.Branch(siteFlushLoop, i+1 < n, rDep)
	}
	// Slide the surviving entries down (loads + stores).
	for i := n; i < b.ncached; i++ {
		from := b.availAddr + uint64(i)*8
		to := b.availAddr + uint64(i-n)*8
		v := h.Space.ReadWord(from)
		vd := e.Load(from, uop.NoDep)
		e.Store(to, vd, uop.NoDep)
		h.Space.WriteWord(to, v)
		h.Space.WriteWord(from, 0)
	}
	b.ncached -= n
	e.Store(bin.lockAddr, uop.NoDep, uop.NoDep)
}

// slabFree clears a region's bitmap bit, releasing the slab's pages when
// it becomes fully free.
func (h *Heap) slabFree(e *uop.Emitter, region uint64, dep uop.Val) {
	span, wDep := h.PageHeap.PageMap().EmitGet(e, region>>mem.PageShift, dep)
	if span == nil {
		panic(fmt.Sprintf("jemalloc: freeing unmapped region %#x", region))
	}
	sl := h.slabOf[span.Start]
	if sl == nil {
		panic(fmt.Sprintf("jemalloc: region %#x has no slab", region))
	}
	idx := int((region - sl.span.StartAddr()) / sl.regionSize)
	wordAddr := sl.bitmapAddr + uint64(idx/64)*8
	word := h.Space.ReadWord(wordAddr)
	bDep := e.Load(wordAddr, wDep)
	h.Space.WriteWord(wordAddr, word&^(uint64(1)<<uint(idx%64)))
	e.Store(wordAddr, bDep, uop.NoDep)
	wasFull := sl.nfree == 0
	sl.nfree++
	bin := h.Bins[sl.class]
	switch {
	case sl.nfree == sl.regions && bin.current != sl:
		// Fully free: release the pages.
		if containsSlab(&bin.nonfull, sl) {
			bin.nonfull.remove(sl)
		}
		delete(h.slabOf, sl.span.Start)
		bin.Slabs--
		// Clear the bitmap words from the simulated store.
		for w := 0; w < sl.words; w++ {
			h.Space.WriteWord(sl.bitmapAddr+uint64(w)*8, 0)
		}
		h.PageHeap.Delete(e, sl.span)
	case wasFull && bin.current != sl:
		bin.nonfull.push(sl)
	}
}

func containsSlab(l *slabList, s *slab) bool {
	for cur := l.head; cur != nil; cur = cur.next {
		if cur == s {
			return true
		}
	}
	return false
}

// CheckInvariants validates tcache stacks and slab accounting.
func (h *Heap) CheckInvariants() {
	for _, tc := range h.threads {
		for c := range tc.bins {
			b := &tc.bins[c]
			for i := 0; i < b.ncached; i++ {
				if h.Space.ReadWord(b.availAddr+uint64(i)*8) == 0 {
					panic(fmt.Sprintf("jemalloc: empty slot %d below ncached=%d (class %d)", i, b.ncached, c))
				}
			}
		}
	}
	for _, sl := range h.slabOf {
		free := 0
		for w := 0; w < sl.words; w++ {
			word := h.Space.ReadWord(sl.bitmapAddr + uint64(w)*8)
			for bit := 0; bit < 64 && w*64+bit < sl.regions; bit++ {
				if word&(uint64(1)<<uint(bit)) == 0 {
					free++
				}
			}
		}
		if free != sl.nfree {
			panic(fmt.Sprintf("jemalloc: slab class %d bitmap free %d != recorded %d", sl.class, free, sl.nfree))
		}
	}
	h.PageHeap.CheckInvariants()
}
