package multicore

import (
	"mallacc/internal/cpu"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
)

// A single-core run is the one core of a solo engine: the paper's own
// setup, one simulated core timing every allocator call. It differs from a
// one-core cluster only in what it keeps. Its core registers its metrics
// unprefixed and none of the machine-wide groups, shares nothing (so it
// gets no lock or CAS model), seeds its footprint touches from its own
// stream, and keeps the bookkeeping only single-core studies read: latency
// histograms, size-class counts, context switches and the live-byte
// ledger. Cluster cores carry none of it (the two histograms alone are
// 16 KiB a core).

// Hooks plugs an allocator the engine does not build into a solo run: the
// emitter its calls write their traces to and the functional malloc/free.
// The crossalloc and buddy studies drive jemalloc, Hoard and the hardware
// buddy allocator this way; they are experiment substrates, not catalog
// backends. The caller owns the allocator and its emitter.
type Hooks struct {
	Em     *uop.Emitter
	Malloc func(size uint64) uint64
	Free   func(addr, hint uint64)
}

// soloBook is a solo engine's single-core bookkeeping.
type soloBook struct {
	mallocHist, freeHist *stats.DurationHist
	classCounts          map[uint8]uint64
	switches             uint64
	// live and peak are the rounded bytes of the live objects, now and at
	// most; metaBytes is the fixed metadata the substrate requested from
	// the simulated OS before the run, excluded from OSBytes.
	live, peak, metaBytes uint64
	// cpu is the core's retirement statistics, which collect copies
	// before Run releases the core.
	cpu cpu.Stats
}

func (b *soloBook) allocated(n uint64) {
	b.live += n
	b.peak = max(b.peak, b.live)
}

func (b *soloBook) freed(n uint64) { b.live -= n }

// SoloResult is everything a single-core run produces: the engine's Result
// for its one core plus the single-core bookkeeping.
type SoloResult struct {
	Result

	MallocHist *stats.DurationHist
	FreeHist   *stats.DurationHist
	// ClassCounts histograms the size class of every small malloc
	// (Figure 6).
	ClassCounts map[uint8]uint64
	// ContextSwitches counts injected switches (CoreConfig.SwitchEvery).
	ContextSwitches uint64
	// Memory accounting (Sec. 2: allocators are judged on both speed and
	// fragmentation): OSBytes is what the allocator requested from the
	// simulated OS, PeakLiveBytes the largest rounded-live footprint the
	// workload held. Both are 0 for a hooked allocator.
	OSBytes       uint64
	PeakLiveBytes uint64

	CPU cpu.Stats
}

// RunSolo executes a single-core run of cfg on one core (cfg.Cores and
// cfg.RemoteFreeProb are ignored). With hooks nil the core drives the
// substrate cfg names; otherwise it drives hooks' allocator.
func RunSolo(cfg Config, hooks *Hooks) *SoloResult {
	cfg.Cores, cfg.RemoteFreeProb = 1, -1
	b := &soloBook{
		mallocHist:  stats.NewDurationHist(),
		freeHist:    stats.NewDurationHist(),
		classCounts: map[uint8]uint64{},
	}
	eng := newEngine(cfg, b, hooks)
	res := eng.Run()
	return &SoloResult{
		Result:          *res,
		MallocHist:      b.mallocHist,
		FreeHist:        b.freeHist,
		ClassCounts:     b.classCounts,
		ContextSwitches: b.switches,
		OSBytes:         eng.sbrkBytes() - b.metaBytes,
		PeakLiveBytes:   b.peak,
		CPU:             b.cpu,
	}
}

// spanSize returns the rounded footprint of the live object at addr, read
// off the span that holds it: the size class's object size, or the whole
// span for a large allocation. The lookup is functional only and emits no
// uops, so it replaces a per-object side table at no simulated cost.
func spanSize(h *tcmalloc.Heap, addr uint64) uint64 {
	s := h.PageHeap.PageMap().Get(addr >> mem.PageShift)
	if s.SizeClass == 0 {
		return s.Length << mem.PageShift
	}
	return h.SizeMap.ClassSize(s.SizeClass)
}
