package harness

import (
	"mallacc/internal/core"
	"mallacc/internal/lockfree"
	"mallacc/internal/mem"
	"mallacc/internal/offload"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
)

// runLockfree executes a single-core run on the lock-free stack backend.
// The backend has no thread caches to rotate or flush, so Threads and
// SwitchEvery degenerate to extra lockfree.Thread handles and plain context
// switches on the core (pipeline drain + cold caches), with no allocator
// state migration.
func runLockfree(opt Options) *Result {
	lCfg := lockfree.DefaultConfig()
	lCfg.Seed = opt.Seed
	if opt.Variant == VariantMallacc {
		lCfg.Mode = tcmalloc.ModeMallacc
		lCfg.MallocCache = core.Config{Entries: opt.MCEntries}
	}
	h := lockfree.New(lCfg)
	defer h.Em.Recycle()
	d := newDriver(opt)
	threads := make([]*lockfree.Thread, d.threads)
	for i := range threads {
		threads[i] = h.NewThread()
	}
	metaBytes := h.Space.SbrkBytes
	h.RegisterMetrics(d.reg)

	d.em, d.sizeMap, d.mc = h.Em, h.SizeMap, h.MC
	// A large block's header holds RoundUp(size+8, PageSize), not the
	// accounted RoundUp(size, PageSize), so the hooks remember each live
	// block's accounted size.
	live := map[uint64]uint64{}
	d.malloc = func(size uint64) (uint64, bool) {
		popBefore := h.Stats.PopHits
		addr := h.Alloc(threads[d.cur], size)
		rounded := mem.RoundUp(size, mem.PageSize)
		if _, r, ok := h.SizeMap.ClassFor(size); ok {
			rounded = r
		}
		live[addr] = rounded
		d.allocated(rounded)
		return addr, h.Stats.PopHits != popBefore
	}
	d.free = func(addr, _ uint64) {
		if r, ok := live[addr]; ok {
			d.freed(r)
			delete(live, addr)
		}
		h.Free(threads[d.cur], addr)
	}

	res := d.run(opt)
	res.OSBytes = h.Space.SbrkBytes - metaBytes
	lfStats := h.Stats
	res.LockFree = &lfStats
	if h.MC != nil {
		mcStats := h.MC.Stats
		res.MC = &mcStats
	}
	h.CheckInvariants()
	return res
}

// runOffload executes a single-requester run of the offload-core variant:
// the requester core marshals each malloc, stalls for the round trip, and
// the dedicated allocation core executes the allocator against its private
// TCMalloc heap.
func runOffload(opt Options) *Result {
	oCfg := offload.DefaultConfig()
	oCfg.Seed = opt.Seed
	if opt.SampleInterval != nil {
		oCfg.Heap.SampleInterval = *opt.SampleInterval
	}
	if opt.DisableSizedDelete {
		oCfg.Heap.SizedDelete = false
	}
	eng := offload.New(oCfg)
	defer eng.Heap.Em.Recycle()
	em := uop.NewEmitter()
	defer em.Recycle()
	metaBytes := eng.Heap.Space.SbrkBytes

	d := newDriver(opt)
	eng.RegisterMetrics(d.reg)
	eng.Heap.RegisterMetrics(d.reg)
	alloccore := d.reg.Sub("alloccore.")
	eng.Core.RegisterMetrics(alloccore)
	eng.Core.Memory().RegisterMetrics(alloccore)

	d.em, d.sizeMap = em, eng.Heap.SizeMap
	d.malloc = func(size uint64) (uint64, bool) {
		addr := eng.Malloc(em, d.core.Cycle(), size)
		d.allocated(spanSize(eng.Heap, addr))
		// "Fast" means served without leaving the requesting core; every
		// offloaded malloc crosses the queue, so none qualify.
		return addr, false
	}
	d.free = func(addr, hint uint64) {
		d.freed(spanSize(eng.Heap, addr))
		eng.Free(em, d.core.Cycle(), addr, hint)
	}

	res := d.run(opt)
	res.OSBytes = eng.Heap.Space.SbrkBytes - metaBytes
	res.Heap = eng.Heap.StatsSnapshot()
	offStats := eng.Stats
	res.Offload = &offStats
	eng.Heap.CheckInvariants()
	return res
}
