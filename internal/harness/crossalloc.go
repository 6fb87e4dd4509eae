package harness

import (
	"mallacc/internal/core"
	"mallacc/internal/hoard"
	"mallacc/internal/jemalloc"
	"mallacc/internal/tcmalloc"
)

// The cross-allocator experiment backs the paper's generality claim
// (Sec. 1, Sec. 4): the same malloc cache and instructions accelerate all
// three allocators the paper names — TCMalloc, a jemalloc-style design
// (array tcache stacks over bitmap slabs) and a Hoard-style design
// (per-thread heaps of superblocks). Hoard also exposes a boundary of the
// approach: its locked fast path hides pure latency gains, leaving cache
// isolation as the benefit.

// runJemalloc drives opt.Workload through the jemalloc substrate on one
// thread cache. Its malloc cache keys raw sizes (generic mode): jemalloc has
// no TCMalloc index hardware.
func runJemalloc(opt Options) *Result {
	cfg := jemalloc.DefaultConfig()
	if opt.Variant == VariantMallacc {
		cfg.Mode = tcmalloc.ModeMallacc
	}
	cfg.Seed = opt.Seed
	cfg.MallocCache = core.Config{Entries: 32}
	h := jemalloc.New(cfg)
	defer h.Em.Recycle()
	tc := h.NewThread()
	d := newDriver(opt)
	d.em = h.Em
	d.malloc = func(size uint64) (uint64, bool) { return h.Malloc(tc, size), false }
	d.free = func(addr, hint uint64) { h.Free(tc, addr, hint) }
	res := d.run(opt)
	h.CheckInvariants()
	return res
}

// runHoard drives opt.Workload through the Hoard-style substrate on one
// thread heap.
func runHoard(opt Options) *Result {
	cfg := hoard.DefaultConfig()
	if opt.Variant == VariantMallacc {
		cfg.Mode = tcmalloc.ModeMallacc
	}
	cfg.Seed = opt.Seed
	cfg.MallocCache = core.Config{Entries: 32}
	h := hoard.New(cfg)
	defer h.Em.Recycle()
	th := h.NewThread()
	d := newDriver(opt)
	d.em = h.Em
	d.malloc = func(size uint64) (uint64, bool) { return h.Malloc(th, size), false }
	d.free = func(addr, hint uint64) { h.Free(th, addr, hint) }
	res := d.run(opt)
	h.CheckInvariants()
	return res
}

var crossWorkloads = []string{"ubench.tp_small", "ubench.gauss_free", "ubench.antagonist", "xapian.pages"}

// CrossAlloc compares Mallacc's improvements across the three allocator
// substrates.
func CrossAlloc(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "crossalloc", Title: "Mallacc across allocators: TCMalloc vs jemalloc-style vs Hoard-style substrates"}
	rep.Notes = append(rep.Notes,
		"extension: substantiates Sec. 1's claim that Mallacc serves many allocators, not one implementation",
		"jemalloc/hoard run the malloc cache in generic raw-size mode (no TCMalloc index hardware); 32 entries everywhere",
		"hoard's warm fast path hides latency gains behind its per-heap lock (the accelerator targets lock-free fast paths); its gains come from cache isolation under pressure")
	tb := &table{header: []string{"workload", "tcmalloc malloc-imp", "jemalloc malloc-imp", "hoard malloc-imp", "tcmalloc alloc-imp", "jemalloc alloc-imp", "hoard alloc-imp"}}
	// TCMalloc through the standard driver (raw-size mode for parity).
	var opts []Options
	for _, wn := range crossWorkloads {
		w := mustWorkload(wn)
		opts = append(opts,
			Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed},
			Options{Workload: w, Variant: VariantMallacc, MCEntries: 32, IndexModeOff: true, Calls: opt.Calls, Seed: opt.Seed})
	}
	results := opt.runGrid(opts)
	for i, wn := range crossWorkloads {
		w := mustWorkload(wn)
		tb0, tb1 := results[2*i], results[2*i+1]
		// jemalloc and Hoard run off the grid: they are experiment-only
		// substrates, not backends a service job can name.
		cell := func(run func(Options) *Result, v Variant) *Result {
			return run(Options{Workload: w, Variant: v, Calls: opt.Calls, Seed: opt.Seed})
		}
		je0, je1 := cell(runJemalloc, VariantBaseline), cell(runJemalloc, VariantMallacc)
		ho0, ho1 := cell(runHoard, VariantBaseline), cell(runHoard, VariantMallacc)
		imp := func(base, acc uint64) string {
			return pct(100 * (float64(base) - float64(acc)) / float64(base))
		}
		tb.addRow(wn,
			imp(tb0.MallocCycles, tb1.MallocCycles),
			imp(je0.MallocCycles, je1.MallocCycles),
			imp(ho0.MallocCycles, ho1.MallocCycles),
			imp(tb0.AllocatorCycles(), tb1.AllocatorCycles()),
			imp(je0.AllocatorCycles(), je1.AllocatorCycles()),
			imp(ho0.AllocatorCycles(), ho1.AllocatorCycles()))
	}
	rep.addTable("", tb)
	return rep
}
